package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags pins the usage errors: each -frac value here
// once panicked slicing the node permutation, -m 100000 once deployed
// ten million sensors, and every case must be refused before a network
// is deployed.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "10", "-attack", "silence", "-frac", "1.5"},
		{"-m", "10", "-attack", "silence", "-frac", "-0.2"},
		{"-m", "10", "-attack", "silence", "-frac", "NaN"},
		{"-frac", "+Inf"},
		{"-m", "0"},
		{"-m", "100000"},
		{"-m", "501"},
		{"-victims", "-1"},
		{"-victims", "50001"},
		{"-victims", "9223372036854775807"},
		{"-attack", "bogus"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before refusing", args, out.String())
		}
	}
}

// TestRunSilenceAttack runs the whole pipeline on a small network, with
// none and with a fifth of its nodes silenced.
func TestRunSilenceAttack(t *testing.T) {
	for _, frac := range []string{"0", "0.2"} {
		var out bytes.Buffer
		if err := run([]string{"-m", "10", "-victims", "20", "-attack", "silence", "-frac", frac}, &out); err != nil {
			t.Fatalf("-frac %s: %v", frac, err)
		}
		for _, want := range []string{"deployed 1000 sensors", "trained Diff threshold", "checked sensors:        20"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-frac %s: report lacks %q:\n%s", frac, want, out.String())
			}
		}
	}
}
