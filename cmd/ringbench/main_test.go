package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := fn()
	w.Close()
	got := <-out
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, got)
	}
	return got
}

// TestGolden pins the experiment list and the quick Figure 1 table byte
// for byte (the simulator runs in virtual time), and checks that the
// table written under -out is the one printed. Regenerate a file with
// `go run ./cmd/ringbench <args> > cmd/ringbench/testdata/<file>` only
// for an intended change.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
		wrote  string // file expected under -out, if any
	}{
		{[]string{"-list"}, "list.golden", ""},
		{[]string{"-quick", "-figure", "fig1"}, "fig1.golden", "fig1.txt"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			out := t.TempDir()
			got := captureStdout(t, func() error { return run(append(tc.args, "-out", out)) })
			if got != string(want) {
				t.Fatalf("ringbench %s drifted from testdata/%s:\n%s",
					strings.Join(tc.args, " "), tc.golden, got)
			}
			if tc.wrote == "" {
				return
			}
			file, err := os.ReadFile(filepath.Join(out, tc.wrote))
			if err != nil {
				t.Fatal(err)
			}
			if string(file)+"\n" != got {
				t.Fatalf("%s holds\n%s\nbut ringbench printed\n%s", tc.wrote, file, got)
			}
		})
	}
}
