package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is started
// by TestRejectsBadArgs, so each case sees main's real exit status.
func TestMain(m *testing.M) {
	if os.Getenv("GATHERFIND_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadArgs: a missing input, an empty time domain, a
// non-positive step and stray arguments are usage errors (exit 2 with a
// message), never an empty answer that exits 0.
func TestRejectsBadArgs(t *testing.T) {
	in := filepath.Join(t.TempDir(), "day.csv")
	if err := os.WriteFile(in, []byte("id,time,x,y\n1,0,0,0\n1,1,10,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-in is required"},
		{[]string{"-in", in, "-ticks", "0"}, "-ticks must be positive"},
		{[]string{"-in", in, "-ticks", "-4"}, "-ticks must be positive"},
		{[]string{"-in", in, "-step", "0"}, "-step must be positive"},
		{[]string{"-in", in, "extra.csv"}, "unexpected arguments"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "GATHERFIND_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.want) {
			t.Errorf("gatherfind %q: %v, output %q; want exit status 2 and %q", c.args, err, out, c.want)
		}
	}
}

// TestRejectsNonFiniteInput: a CSV with NaN or infinite sample times is
// refused at load (exit 1, naming the line), never discovered over.
func TestRejectsNonFiniteInput(t *testing.T) {
	in := filepath.Join(t.TempDir(), "nan.csv")
	if err := os.WriteFile(in, []byte("1,NaN,5,5\n2,Inf,1,1\n1,1,5,5\n2,2,1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-in", in, "-ticks", "3", "-mc", "1", "-kc", "1", "-kp", "1", "-mp", "1", "-minpts", "1"}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GATHERFIND_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if want := `line 1: bad time "NaN"`; !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(string(out), want) {
		t.Errorf("gatherfind %q: %v, output %q; want a non-zero exit and %q", args, err, out, want)
	}
}
