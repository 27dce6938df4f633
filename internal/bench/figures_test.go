package bench

import (
	"strings"
	"testing"
)

func TestFigureIDsKnown(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 19 {
		t.Fatalf("expected 19 experiments (13 figures + max-throughput + 5 ablations), got %d", len(ids))
	}
	s := &Suite{Quick: true}
	if _, err := s.Figure("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFig1Schedule(t *testing.T) {
	s := &Suite{Quick: true}
	tbl, err := s.Figure("fig1")
	if err != nil {
		t.Fatal(err)
	}
	// The accelerated schedule must show exactly the paper's pattern per
	// participant: 2 pre-token sends, the token, 3 post-token sends.
	var pre, post int
	var tokenSeqs []string
	for _, row := range tbl.Rows {
		if row[0] != "accelerated" {
			continue
		}
		switch {
		case row[3] == "send-token":
			// Collect first occurrences of non-empty token seq values
			// (the initial rotation carries 0).
			if row[4] != "0" && (len(tokenSeqs) == 0 || tokenSeqs[len(tokenSeqs)-1] != row[4]) {
				tokenSeqs = append(tokenSeqs, row[4])
			}
		case row[5] == "pre-token":
			pre++
		case row[5] == "post-token":
			post++
		}
	}
	if pre != 8 || post != 12 {
		t.Fatalf("accelerated sends pre=%d post=%d, want 8/12 (2+3 per participant, 4 rounds)", pre, post)
	}
	// The token must carry exactly the paper's seq values 5, 10, 15, 20 —
	// identical to the original protocol — even though it leaves early.
	want := []string{"5", "10", "15", "20"}
	if len(tokenSeqs) != len(want) {
		t.Fatalf("token seqs = %v, want %v", tokenSeqs, want)
	}
	for i, w := range want {
		if tokenSeqs[i] != w {
			t.Fatalf("token seq sequence = %v, want %v", tokenSeqs, want)
		}
	}
	// The original schedule has no post-token sends at all.
	for _, row := range tbl.Rows {
		if row[0] == "original" && row[5] == "post-token" {
			t.Fatalf("original schedule contains a post-token send: %v", row)
		}
	}
}

func TestMaxThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("saturating sweeps are slow")
	}
	s := &Suite{Quick: true}
	tbl, err := s.Figure("maxthroughput")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 fabrics × 3 impls)", len(tbl.Rows))
	}
	// Every row: accelerated >= original (the headline claim).
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[5], "+") {
			t.Fatalf("accelerated did not win on %v", row)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"n1"},
	}
	tbl.AddRow("1", "2")
	out := tbl.Format()
	for _, want := range []string{"# t — demo", "a", "bb", "1", "2", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "b,с"},
		Notes:   []string{"note one"},
	}
	tbl.AddRow("1", `va"l`)
	out := tbl.CSV()
	for _, want := range []string{"# t: demo", "# note one", `a,"b,с"`, `1,"va""l"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV() missing %q:\n%s", want, out)
		}
	}
}
