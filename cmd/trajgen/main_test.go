package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is started
// by TestRejectsBadArgs, so each case sees main's real exit status.
func TestMain(m *testing.M) {
	if os.Getenv("TRAJGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadArgs: a non-positive size and a stray argument (such as an
// output file named without -o) are usage errors (exit 2 with a message),
// never a panic or a silent fallback to the generator's default or stdout.
func TestRejectsBadArgs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-taxis", "-5"}, "-taxis must be positive"},
		{[]string{"-ticks", "-3"}, "-ticks must be positive"},
		{[]string{"-taxis", "0"}, "-taxis must be positive"},
		{[]string{"-ticks", "0"}, "-ticks must be positive"},
		{[]string{"-days", "0"}, "-days must be positive"},
		{[]string{"-taxis", "5", "-ticks", "4", "out.csv"}, "unexpected arguments"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "TRAJGEN_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.want) {
			t.Errorf("trajgen %q: %v, output %q; want exit status 2 and %q", c.args, err, out, c.want)
		}
	}
}
