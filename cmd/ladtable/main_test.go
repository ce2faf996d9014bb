package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags pins the usage errors: each value here once
// looped without end (a step that never advances z), panicked in
// deploy.NewGTable (a zero-width table), or would exhaust memory.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-step", "0"},
		{"-step", "-10"},
		{"-step", "NaN"},
		{"-step", "+Inf"},
		{"-step", "1e-300"},
		{"-R", "0", "-sigma", "0"},
		{"-R", "0"},
		{"-R", "-50"},
		{"-R", "NaN"},
		{"-R", "2e7"},
		{"-sigma", "0"},
		{"-sigma", "+Inf"},
		{"-omega", "0"},
		{"-omega", "-1"},
		{"-omega", "2000000"},
		{"-sweep"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %d bytes before refusing", args, out.Len())
		}
	}
}

// TestRunDefaultTable checks the default g(z) table: z from 0 to
// MaxZ = R + 6σ = 350 m in 10 m steps, g(0) = 1 − e^(−1/2) for R = σ
// and g(MaxZ) zero.
func TestRunDefaultTable(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"probability a group member lands within R=50 of a point",
		"(σ=50, ω=512, zero beyond 350)",
		"g(z) table",
		"g(z) exact",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("default table lacks %q:\n%s", want, text)
		}
	}
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] != "z" && !strings.HasPrefix(f[0], "-") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 36 {
		t.Fatalf("default table has %d rows, want 36 (z = 0, 10, …, 350):\n%s", len(rows), text)
	}
	if f := strings.Fields(rows[0]); f[0] != "0" || f[1] != "0.393469" || f[2] != "0.393469" {
		t.Errorf("first row %q: want z = 0 with g = 0.393469", rows[0])
	}
	if f := strings.Fields(rows[35]); f[0] != "350" || f[1] != "0.000000" {
		t.Errorf("last row %q: want z = 350 with g = 0", rows[35])
	}
}

// TestRunOtherTables smoke-runs the Figure 1 and Figure 2 printers.
func TestRunOtherTables(t *testing.T) {
	for flag, want := range map[string]string{
		"-grid": "(950,950)",
		"-pdf":  "deployment pdf around",
	} {
		var out bytes.Buffer
		if err := run([]string{flag}, &out); err != nil {
			t.Fatalf("%s: %v", flag, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s output lacks %q:\n%s", flag, want, out.String())
		}
	}
}
