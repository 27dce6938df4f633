package main

import (
	"io"
	"os"
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

// TestGolden pins both views byte for byte: the Figure 1 timelines and
// the -follow lifecycle table are virtual-time runs, so any drift is a
// change in the protocol's schedule or in the rendering. Regenerate a
// file with `go run ./cmd/ringtrace <args> > cmd/ringtrace/testdata/<file>`
// only for an intended change.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{nil, "timeline.golden"},
		{[]string{"-follow"}, "follow.golden"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error { return run(tc.args) })
			if got != string(want) {
				t.Fatalf("ringtrace %s drifted from testdata/%s:\n%s",
					strings.Join(tc.args, " "), tc.golden, got)
			}
		})
	}
}
