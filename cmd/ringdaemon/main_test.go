package main

import (
	"bytes"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelring/internal/ringconf"
	"accelring/internal/transport"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("2=127.0.0.1:5002, 3=host:5003")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("peers = %v", peers)
	}
	if p := peers[2]; p != (transport.UDPPeer{Data: "127.0.0.1:5002"}) {
		t.Fatalf("peer 2 = %+v", p)
	}
	if p := peers[3]; p != (transport.UDPPeer{Data: "host:5003"}) {
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
		"x=1.2.3.4:1",
		"0=1.2.3.4:1",
		"2=",
		"2=1.2.3.4:1/1.2.3.4:2", // the old id=dataAddr/tokenAddr form
		"2=1.2.3.4:1,2=1.2.3.4:3",
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

// TestHelpGolden pins the command line: every flag's name, default and
// help text, byte for byte (testdata/help.golden).
func TestHelpGolden(t *testing.T) {
	var out bytes.Buffer
	fs := flags(new(ringconf.Config), new(options))
	fs.SetOutput(&out)
	if err := fs.Parse([]string{"-help"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-help = %v", err)
	}
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-help output drifted from testdata/help.golden:\n%s", out.Bytes())
	}
}

// TestRunFlagValidation: every rejected command line fails before anything
// is bound — with the shared Config's sentinel where Validate rejects it,
// otherwise with an error naming the flag at fault, including tuning
// flags given without the switch that makes them act. Each case runs
// against a client address that is already taken, so a case that got as
// far as listening fails with a bind error instead, and with log output
// captured, so one that started the observability server is caught too.
func TestRunFlagValidation(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	for _, tc := range []struct {
		args    string
		want    error
		wantErr string
	}{
		{"", ringconf.ErrNoSelf, ""},
		{"-id 1 -peers garbage", nil, "bad peer"},
		{"-id 1 -shards 0", nil, "-shards"},
		{"-id 1 -shards -1", ringconf.ErrBadShards, ""},
		{"-id 1 -shard-stride 0", nil, "-shard-stride"},
		{"-id 1 -shard-stride -2", ringconf.ErrBadWire, ""},
		{"-id 1 -personal 0", nil, "-personal"},
		{"-id 1 -batch-send 8", nil, "-batch-send"},
		{"-id 1 -pack -pack-limit 1200", nil, "-pack-limit"},
		{"-id 1 -accelerated 25 -obs 127.0.0.1:0", ringconf.ErrBadWindow, ""},
		{"-id 1 -global 5", ringconf.ErrBadWindow, ""},
		{"-id 1 -obs 127.0.0.1:0 -trace-sample -1", ringconf.ErrBadBufferSize, ""},
		{"-id 1 -data 127.0.0.1:0 -shards 2", ringconf.ErrShardPorts, ""},
		{"-id 1 -token 127.0.0.1:6001", nil, "-token"},
		{"-id 1 -peers 2=127.0.0.1:5002/127.0.0.1:6002", nil, "bad peer address"},
		{"-id 1 -trace-sample 64", nil, "without -obs"},
		{"-id 1 -slo-p99 5ms", nil, "without -obs"},
		{"-id 1 -slo-p999 9ms", nil, "without -obs"},
		{"-id 1 -slo-burn 2", nil, "without -obs"},
	} {
		logged.Reset()
		err := run(append(strings.Fields(tc.args), "-client", held.Addr().String()))
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("run(%q) = %v, want %v", tc.args, err, tc.want)
		}
		if tc.want == nil && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
		}
		if logged.Len() > 0 {
			t.Errorf("run(%q) started serving before it failed: %s", tc.args, logged.Bytes())
		}
	}
}
