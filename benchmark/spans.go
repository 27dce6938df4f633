package main

import (
	"bufio"
	"fmt"
	"os"
)

// writeSpans writes one line per sampled message of a pass: the
// benchmark's own boundary spans around the calls into the stack, in
// nanoseconds from the pass origin, with the ring sequence that joins
// them to the program's spans. -1 marks a delivery that never happened.
// Only messages the program's tracer sampled too (ring_seq a multiple of
// traceEvery) are written: they are the ones that can be joined, and a
// line for every message is a quarter of a gigabyte per full run.
func writeSpans(path string, pd *passData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type delivery struct {
		at  [numClients]int64
		seq uint64
	}
	for s := range pd.sends {
		got := make([]delivery, len(pd.sends[s]))
		for i := range got {
			for sub := range got[i].at {
				got[i].at[sub] = -1
			}
		}
		for sub, recs := range pd.recvs {
			for _, r := range recs {
				if id := keyID(r.key); keySender(r.key) == s && id < uint64(len(got)) {
					got[id].at[sub] = int64(r.at - pd.origin)
					got[id].seq = r.seq
				}
			}
		}
		for id, r := range pd.sends[s] {
			if got[id].seq%traceEvery != 0 {
				continue
			}
			fmt.Fprintf(w, `{"sender":%d,"id":%d,"group":%q,"due":%d,"send_start":%d,"send_end":%d,"recv_local":%d,"recv_remote":%d,"ring_seq":%d}`+"\n",
				s, id, pd.wl.groups[r.groupIdx], int64(r.due), int64(r.start), int64(r.end), got[id].at[s], got[id].at[1-s], got[id].seq)
		}
	}
	// Sync: a full run starts its next measurement right after this
	// process exits, and tens of megabytes of write-back would land in it.
	err = w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
