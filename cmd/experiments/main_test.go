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
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadArgs: a non-positive size, an empty or unknown subcommand
// and stray arguments are usage errors (exit 2 with a message), never a
// panic or a silent fallback.
func TestRejectsBadArgs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{""}, `unknown subcommand ""`},
		{[]string{"nope"}, `unknown subcommand "nope"`},
		{[]string{"fig5", "-ticks", "0"}, "-ticks must be positive"},
		{[]string{"-taxis", "-1"}, "-taxis must be positive"},
		{[]string{"fig7", "-crowds", "0"}, "-crowds must be positive"},
		{[]string{"fig5", "fig6"}, "unexpected arguments"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.want) {
			t.Errorf("experiments %q: %v, output %q; want exit status 2 and %q", c.args, err, out, c.want)
		}
	}
}
