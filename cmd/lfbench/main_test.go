package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-e", "E8", "-quick", "-d", "10ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	if err := run([]string{"-e", "E4,A3", "-quick", "-d", "10ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-e", "E42"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "E11") {
		t.Fatalf("error does not list every valid ID: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-nope", "-json-dir"} {
		if err := run([]string{flag, "."}); err == nil {
			t.Fatalf("bad flag %s accepted", flag)
		}
	}
}

func TestRunFormats(t *testing.T) {
	for _, format := range []string{"csv", "markdown"} {
		if err := run([]string{"-e", "E8", "-quick", "-d", "5ms", "-format", format}); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
	}
	if err := run([]string{"-e", "E8", "-quick", "-d", "5ms", "-format", "xml"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}
