package group

import (
	"bytes"
	"testing"
)

// FuzzDecodeEnvelope: the envelope codec must never panic; decoded
// envelopes re-encode identically, to EncodedLen bytes.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, e := range []Envelope{
		{Kind: OpJoin, Sender: ClientID{Daemon: 1, Local: 2}, Groups: []string{"g"}},
		{Kind: OpMessage, Sender: ClientID{Daemon: 1, Local: 2},
			Groups: []string{"a", "b"}, Payload: []byte("data")},
		{Kind: OpDisconnect, Sender: ClientID{Daemon: 3, Local: 4}},
		{Kind: OpSkip, Sender: ClientID{Daemon: 1}, Arg: 42},
		{Kind: OpMigrateBegin, Sender: ClientID{Daemon: 1, Local: 2},
			Groups: []string{"hot"}, Arg: 3},
		{Kind: OpMigrateAck, Sender: ClientID{Daemon: 2},
			Groups: []string{"hot"}, Arg: 1},
	} {
		enc, err := e.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeEnvelope(b)
		if err != nil {
			return
		}
		enc, err := e.Encode()
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("envelope encoding not canonical:\n in %x\nout %x", b, enc)
		}
		if n := e.EncodedLen(); n != len(enc) {
			t.Fatalf("EncodedLen %d, encoding %d bytes", n, len(enc))
		}
	})
}
