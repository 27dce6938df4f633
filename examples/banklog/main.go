// Banklog: a replicated bank built on Safe delivery and Extended Virtual
// Synchrony, with membership-change state transfer.
//
//	go run ./examples/banklog
//
// Four replicas apply deposit/transfer commands to local account tables
// strictly in the delivered total order. Safe delivery guarantees a
// command is applied only once every replica holds it. When membership
// changes (here: replica 4 is killed mid-run), EVS delivers a
// configuration change at the same point in the total order everywhere,
// and the replicas run the classic state-transfer pattern on top of it:
//
//  1. the new configuration's leader multicasts a MARKER;
//  2. from the marker on, every replica buffers commands instead of
//     applying them, and the leader snapshots its state as of the marker;
//  3. the leader multicasts the SNAPSHOT; a replica adopts it if the
//     snapshot is ahead of its own state, then everyone replays the
//     buffered commands.
//
// Because marker and snapshot travel in the same total order as the
// commands, every replica resolves to the identical ledger — which the
// final checksum comparison verifies.
package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// Payload kinds on the wire.
const (
	kindCommand  byte = 1
	kindMarker   byte = 2
	kindSnapshot byte = 3
)

// command is one ledger operation. from == 0 means a deposit.
type command struct {
	from, to uint16
	amount   uint32
}

func (c command) encode() []byte {
	b := make([]byte, 9)
	b[0] = kindCommand
	binary.BigEndian.PutUint16(b[1:], c.from)
	binary.BigEndian.PutUint16(b[3:], c.to)
	binary.BigEndian.PutUint32(b[5:], c.amount)
	return b
}

func decodeCommand(b []byte) (command, bool) {
	if len(b) != 9 || b[0] != kindCommand {
		return command{}, false
	}
	return command{
		from:   binary.BigEndian.Uint16(b[1:]),
		to:     binary.BigEndian.Uint16(b[3:]),
		amount: binary.BigEndian.Uint32(b[5:]),
	}, true
}

func encodeMarker(epoch uint64) []byte {
	b := make([]byte, 9)
	b[0] = kindMarker
	binary.BigEndian.PutUint64(b[1:], epoch)
	return b
}

// snapshot: kind(1) epoch(8) applied(8) n(2) {account(2) balance(8)}*
func encodeSnapshot(epoch, applied uint64, balances map[uint16]int64) []byte {
	accounts := make([]uint16, 0, len(balances))
	for a := range balances {
		accounts = append(accounts, a)
	}
	sort.Slice(accounts, func(i, j int) bool { return accounts[i] < accounts[j] })
	b := make([]byte, 0, 19+10*len(accounts))
	b = append(b, kindSnapshot)
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint64(b, applied)
	b = binary.BigEndian.AppendUint16(b, uint16(len(accounts)))
	for _, a := range accounts {
		b = binary.BigEndian.AppendUint16(b, a)
		b = binary.BigEndian.AppendUint64(b, uint64(balances[a]))
	}
	return b
}

func decodeSnapshot(b []byte) (epoch, applied uint64, balances map[uint16]int64, ok bool) {
	if len(b) < 19 || b[0] != kindSnapshot {
		return 0, 0, nil, false
	}
	epoch = binary.BigEndian.Uint64(b[1:])
	applied = binary.BigEndian.Uint64(b[9:])
	n := int(binary.BigEndian.Uint16(b[17:]))
	if len(b) != 19+10*n {
		return 0, 0, nil, false
	}
	balances = make(map[uint16]int64, n)
	off := 19
	for i := 0; i < n; i++ {
		a := binary.BigEndian.Uint16(b[off:])
		v := int64(binary.BigEndian.Uint64(b[off+2:]))
		balances[a] = v
		off += 10
	}
	return epoch, applied, balances, true
}

// replica is one bank replica. All mutation happens on the protocol
// goroutine (OnEvent); the mutex protects the final read.
type replica struct {
	mu       sync.Mutex
	id       evs.ProcID
	node     *ringnode.Node
	balances map[uint16]int64
	applied  uint64

	epoch     uint64 // current regular configuration's sequence number
	leader    bool
	buffering bool
	buffer    []command
}

func (r *replica) applyNow(c command) {
	if c.from != 0 {
		if r.balances[c.from] < int64(c.amount) {
			return // deterministic overdraft rejection
		}
		r.balances[c.from] -= int64(c.amount)
	}
	r.balances[c.to] += int64(c.amount)
	r.applied++
}

// onEvent runs on the protocol goroutine and is the only writer.
func (r *replica) onEvent(ev evs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e := ev.(type) {
	case evs.ConfigChange:
		if e.Transitional {
			return
		}
		r.epoch = e.Config.ID.Seq
		r.leader = len(e.Config.Members) > 0 && e.Config.Members[0] == r.id
		r.buffering = false
		r.buffer = nil
		fmt.Printf("replica %d: configuration %v (leader=%v)\n", r.id, e.Config, r.leader)
		if r.leader {
			// Kick off state transfer for the new configuration. Submit
			// only queues, so the handler may call it.
			if err := r.node.Submit(encodeMarker(r.epoch), evs.Safe); err != nil {
				log.Printf("replica %d: marker: %v", r.id, err)
			}
		}
	case evs.Message:
		r.onMessage(e)
	}
}

func (r *replica) onMessage(e evs.Message) {
	switch {
	case len(e.Payload) > 0 && e.Payload[0] == kindCommand:
		c, ok := decodeCommand(e.Payload)
		if !ok {
			return
		}
		if r.buffering {
			r.buffer = append(r.buffer, c)
			return
		}
		r.applyNow(c)
	case len(e.Payload) > 0 && e.Payload[0] == kindMarker:
		epoch := binary.BigEndian.Uint64(e.Payload[1:])
		if epoch != r.epoch {
			return // stale marker from a superseded configuration
		}
		// From this point in the total order, everyone buffers; the
		// leader snapshots its state exactly here.
		r.buffering = true
		r.buffer = nil
		if r.leader {
			snap := encodeSnapshot(epoch, r.applied, cloneBalances(r.balances))
			if err := r.node.Submit(snap, evs.Safe); err != nil {
				log.Printf("replica %d: snapshot: %v", r.id, err)
			}
		}
	case len(e.Payload) > 0 && e.Payload[0] == kindSnapshot:
		epoch, applied, balances, ok := decodeSnapshot(e.Payload)
		if !ok || epoch != r.epoch || !r.buffering {
			return
		}
		if applied > r.applied {
			// We are behind (we missed a configuration): adopt.
			fmt.Printf("replica %d: adopting snapshot (applied %d -> %d)\n", r.id, r.applied, applied)
			r.balances = balances
			r.applied = applied
		}
		r.buffering = false
		for _, c := range r.buffer {
			r.applyNow(c)
		}
		r.buffer = nil
	}
}

func cloneBalances(m map[uint16]int64) map[uint16]int64 {
	out := make(map[uint16]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checksum summarizes the ledger deterministically.
func (r *replica) checksum() (uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	accounts := make([]uint16, 0, len(r.balances))
	for a := range r.balances {
		accounts = append(accounts, a)
	}
	sort.Slice(accounts, func(i, j int) bool { return accounts[i] < accounts[j] })
	h := fnv.New64a()
	var buf [10]byte
	for _, a := range accounts {
		binary.BigEndian.PutUint16(buf[0:], a)
		binary.BigEndian.PutUint64(buf[2:], uint64(r.balances[a]))
		h.Write(buf[:])
	}
	return h.Sum64(), r.applied
}

func main() {
	const replicas = 4
	hub := transport.NewHub()
	rng := rand.New(rand.NewSource(7))

	banks := make(map[evs.ProcID]*replica)
	nodes := make(map[evs.ProcID]*ringnode.Node)
	for id := evs.ProcID(1); id <= replicas; id++ {
		ep, err := hub.Endpoint(id, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		bank := &replica{id: id, balances: make(map[uint16]int64)}
		banks[id] = bank
		cfg := ringnode.Accelerated(id, ep, 15, 120, 10)
		cfg.Timeouts = membership.Timeouts{
			JoinInterval:    10 * time.Millisecond,
			Gather:          50 * time.Millisecond,
			Commit:          100 * time.Millisecond,
			TokenLoss:       250 * time.Millisecond,
			TokenRetransmit: 60 * time.Millisecond,
		}
		cfg.OnEvent = bank.onEvent
		node, err := ringnode.Start(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer node.Stop()
		bank.node = node
		nodes[id] = node
	}
	for _, n := range nodes {
		if !n.WaitState(membership.StateOperational, 5*time.Second) {
			log.Fatalf("ring did not form: %+v", n.Status())
		}
	}
	fmt.Println("bank cluster up:", nodes[1].Status().Ring)

	// Seed accounts, then run random transfers from every replica.
	for acct := uint16(1); acct <= 8; acct++ {
		if err := nodes[1].Submit(command{to: acct, amount: 1000}.encode(), evs.Safe); err != nil {
			log.Fatal(err)
		}
	}
	submitTransfers := func(id evs.ProcID, n int) {
		node := nodes[id]
		for i := 0; i < n; i++ {
			cmd := command{
				from:   uint16(rng.Intn(8) + 1),
				to:     uint16(rng.Intn(8) + 1),
				amount: uint32(rng.Intn(200) + 1),
			}
			if err := node.Submit(cmd.encode(), evs.Safe); err != nil {
				return // replica stopped mid-run; fine
			}
		}
	}
	for id := evs.ProcID(1); id <= replicas; id++ {
		submitTransfers(id, 25)
	}

	// Kill replica 4 mid-stream: the ring reforms, the leader drives a
	// state transfer, and the survivors keep going.
	time.Sleep(200 * time.Millisecond)
	fmt.Println("\n*** killing replica 4 ***")
	nodes[4].Stop()
	for id := evs.ProcID(1); id <= 3; id++ {
		submitTransfers(id, 25)
	}
	time.Sleep(1500 * time.Millisecond)

	fmt.Println()
	var sums []uint64
	for id := evs.ProcID(1); id <= 3; id++ {
		sum, applied := banks[id].checksum()
		sums = append(sums, sum)
		fmt.Printf("replica %d: applied=%d checksum=%016x\n", id, applied, sum)
	}
	agree := sums[0] == sums[1] && sums[1] == sums[2]
	fmt.Printf("\nsurviving replicas agree on the ledger: %v\n", agree)
	if !agree {
		log.Fatal("replicas diverged")
	}
}
