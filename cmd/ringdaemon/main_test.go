package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("2=127.0.0.1:5002/127.0.0.1:6002, 3=host:5003/host:6003")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("peers = %v", peers)
	}
	if p := peers[2]; p.Data != "127.0.0.1:5002" || p.Token != "127.0.0.1:6002" {
		t.Fatalf("peer 2 = %+v", p)
	}
	if p := peers[3]; p.Data != "host:5003" || p.Token != "host:6003" {
		t.Fatalf("peer 3 = %+v", p)
	}
	// Empty spec is fine (singleton daemon).
	if peers, err := parsePeers(""); err != nil || len(peers) != 0 {
		t.Fatalf("empty spec: %v %v", peers, err)
	}
}

func TestParsePeersErrors(t *testing.T) {
	for _, spec := range []string{
		"nope",
		"x=1.2.3.4:1/1.2.3.4:2",
		"0=1.2.3.4:1/1.2.3.4:2",
		"2=1.2.3.4:1",
	} {
		if _, err := parsePeers(spec); err == nil {
			t.Errorf("parsePeers(%q) accepted", spec)
		}
	}
}

func TestListen(t *testing.T) {
	ln, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if ln.Addr().Network() != "tcp" {
		t.Fatalf("network = %s", ln.Addr().Network())
	}
	sock := filepath.Join(t.TempDir(), "d.sock")
	uln, err := listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	defer uln.Close()
	if uln.Addr().Network() != "unix" {
		t.Fatalf("network = %s", uln.Addr().Network())
	}
}

// TestRunFlagValidation: every rejected command line fails before anything
// is bound, with an error naming the flag at fault — including tuning
// flags given without the switch that makes them act.
func TestRunFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string
	}{
		{"", "-id"},
		{"-id 1 -peers garbage", "bad peer"},
		{"-id 1 -shards 0", "-shards"},
		{"-id 1 -shard-stride 0", "-shard-stride"},
		{"-id 1 -mcast 239.1.1.7:5100 -mcast-ttl 256", "-mcast-ttl"},
		{"-id 1 -batch-send -1", "-batch-send"},
		{"-id 1 -obs 127.0.0.1:0 -trace-sample -1", "-trace-sample"},
		{"-id 1 -skip-interval -1ms", "-skip-interval"},
		{"-id 1 -trace-sample 64", "without -obs"},
		{"-id 1 -slo-p99 5ms", "without -obs"},
		{"-id 1 -slo-p999 9ms", "without -obs"},
		{"-id 1 -slo-burn 2", "without -obs"},
		{"-id 1 -pack-limit 1200", "without -pack"},
		{"-id 1 -pack-delay 1ms", "without -pack"},
		{"-id 1 -pack=false -pack-delay 1ms", "without -pack"},
		{"-id 1 -mcast-ttl 4", "without -mcast"},
		{"-id 1 -mcast-if lo", "without -mcast"},
	} {
		err := run(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
		}
	}
}
