package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when the test binary is re-executed
// with TNNSERVE_ARGS set, so a test can observe its exit status and
// output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TNNSERVE_ARGS"); ok {
		os.Args = append([]string{"tnnserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsInvalidInput: negative dataset sizes and a non-positive slot
// duration are usage errors — a one-line message and exit status 2 before
// anything goes on air — never a panic or a service paced at some other
// rate than the one asked for.
func TestRejectsInvalidInput(t *testing.T) {
	for _, args := range []string{
		"-s -5 -r 100",
		"-s 100 -r -1",
		"-s 100 -r 100 -slot -1ms",
		"-s 100 -r 100 -slot 0",
		"-s 100 -r 100 -data 2147483647",
	} {
		// A command that accepts the flags serves until signalled; the
		// deadline turns that into a failure instead of a hung test.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "TNNSERVE_ARGS=-addr 127.0.0.1:0 "+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2", args, err)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "tnnserve: ") || strings.Contains(msg, "panic") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one tnnserve: line", args, msg)
		}
	}
}
