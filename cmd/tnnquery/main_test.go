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
// with TNNQUERY_ARGS set, so a test can observe its exit status and
// output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TNNQUERY_ARGS"); ok {
		os.Args = append([]string{"tnnquery"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsInvalidInput: negative dataset sizes and a non-finite query
// point are usage errors — a one-line message and exit status 2 — never
// a panic, with and without the page trace.
func TestRejectsInvalidInput(t *testing.T) {
	for _, args := range []string{
		"-s -5 -r 100",
		"-s 100 -r -5",
		"-s 100 -r 100 -x NaN",
		"-s 100 -r 100 -y -Inf -algo all",
		"-s 100 -r 100 -x +Inf -trace",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "TNNQUERY_ARGS="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2", args, err)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "tnnquery: ") || strings.Contains(msg, "panic") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one tnnquery: line", args, msg)
		}
	}
}

// TestAnswersValidQuery: a valid query runs through Do to an exact
// answer and exits 0.
func TestAnswersValidQuery(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "TNNQUERY_ARGS=-s 300 -r 300 -algo all")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("exit %v", err)
	}
	if n := strings.Count(string(out), "[exact]"); n != 4 {
		t.Errorf("%d exact answers, want 4:\n%s", n, out)
	}
}
