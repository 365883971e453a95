package main

import (
	"bytes"
	"os"
	"testing"
)

// The committed internal/integrals/kernels_gen.go must be exactly what
// generate returns: edits belong in the generator, never in the
// generated file. Regenerate with `go generate ./internal/integrals`.
func TestCommittedKernelsMatchGenerator(t *testing.T) {
	want, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../internal/integrals/kernels_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("kernels_gen.go drifted from cmd/kernelgen at line %d:\n committed: %s\n generated: %s\n(run go generate ./internal/integrals)", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("kernels_gen.go drifted from cmd/kernelgen: %d lines committed, %d generated (run go generate ./internal/integrals)", len(gl), len(wl))
}
