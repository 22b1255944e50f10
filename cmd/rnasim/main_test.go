package main

import (
	"bytes"
	"strings"
	"testing"

	rna "repro"
)

func TestListPrintsEveryExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	ids := rna.ExperimentIDs()
	if len(lines) != len(ids) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(ids), out.String())
	}
	for i, id := range ids {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != id {
			t.Errorf("line %d = %q, want experiment %s and its title", i, lines[i], id)
		}
	}
}

func TestExperimentErrors(t *testing.T) {
	for _, tc := range []struct {
		name, ids, want string
	}{
		{"unknown ID", "fig3,no-such-figure", "no-such-figure"},
		{"no IDs", "", "no experiment IDs"},
		{"only commas", " , ", "no experiment IDs"},
	} {
		var out bytes.Buffer
		err := run([]string{"-experiment", tc.ids}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before failing", tc.name, out.String())
		}
	}
}

func TestExperimentPrintsHeader(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig3", "-scale", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = "=== fig3: Blocking vs non-blocking AllReduce ===\n\n"
	if !strings.HasPrefix(out.String(), want) {
		t.Errorf("output starts %q, want %q", out.String()[:min(out.Len(), 80)], want)
	}
}
