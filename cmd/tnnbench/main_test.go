package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with TNNBENCH_ARGS set, so a test can observe its exit status and
// output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TNNBENCH_ARGS"); ok {
		os.Args = append([]string{"tnnbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsInvalidAir: out-of-range page and fault flags are usage
// errors — a one-line message and exit status 2 — never a panic inside
// an experiment.
func TestRejectsInvalidAir(t *testing.T) {
	for _, args := range []string{
		"-exp fig9c -queries 1 -page 8",
		"-exp fig9a -queries 1 -loss 0.01 -burst NaN",
		"-exp fig9a -queries 1 -loss 0.01 -burst 1e12",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "TNNBENCH_ARGS="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2", args, err)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "tnnbench: ") || strings.Contains(msg, "panic") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one tnnbench: line", args, msg)
		}
	}
}
