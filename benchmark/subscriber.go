package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/client"
)

// Every payload starts with a header naming the message — sender
// connection, group index, per-sender id — followed by bytes copied from
// a seeded fill block at an offset the header determines, so a
// subscriber can verify every byte it receives.
const (
	headerLen = 10
	fillLen   = 1 << 16
)

// msgKey packs (sender, group, id) into one word for the delivery logs.
func msgKey(sender, groupIdx int, id uint64) uint64 {
	return uint64(sender)<<56 | uint64(groupIdx)<<48 | id
}

func keySender(k uint64) int { return int(k >> 56) }
func keyGroup(k uint64) int  { return int(k >> 48 & 0xff) }
func keyID(k uint64) uint64  { return k & (1<<48 - 1) }

func makeFill(seed int64) []byte {
	fill := make([]byte, fillLen)
	rand.New(rand.NewSource(seed)).Read(fill)
	return fill
}

func fillOffset(key uint64, size int) int {
	return int(key * 0x9E3779B97F4A7C15 >> 33 % uint64(fillLen-size))
}

// makePayload allocates and fills one message. This allocation is the
// generator's constant floor of one object per message in allocs_per_msg.
func makePayload(fill []byte, size, sender, groupIdx int, id uint64) []byte {
	p := make([]byte, size)
	p[0], p[1] = byte(sender), byte(groupIdx)
	binary.BigEndian.PutUint64(p[2:], id)
	off := fillOffset(msgKey(sender, groupIdx, id), size)
	copy(p[headerLen:], fill[off:])
	return p
}

// checkPayload returns the key of a received payload, or an error if any
// byte differs from what makePayload would have produced.
func checkPayload(fill []byte, size int, p []byte) (uint64, error) {
	if len(p) != size {
		return 0, fmt.Errorf("payload is %d bytes, want %d", len(p), size)
	}
	key := msgKey(int(p[0]), int(p[1]), binary.BigEndian.Uint64(p[2:]))
	off := fillOffset(key, size)
	if !bytes.Equal(p[headerLen:], fill[off:off+size-headerLen]) {
		return 0, fmt.Errorf("payload of message %#x is corrupt", key)
	}
	return key, nil
}

// recvRec is one delivery as a subscriber's Events loop saw it.
type recvRec struct {
	key uint64
	at  time.Duration // since the stack's base
	seq uint64        // client.Message.Seq: joins the program's spans
}

// subscriber drains one client's event stream for the life of the stack.
type subscriber struct {
	idx     int
	c       *client.Client
	wl      workload
	origin  time.Time // the stack's base: delivery times are offsets from it
	fill    []byte
	credits chan struct{} // closed loop: one credit back per own delivery
	done    chan struct{}

	// Owned by the loop until done closes.
	log        *reclog // nil on a stack that carries no pass
	rejections int
	anomalies  []string // corrupt payloads, wrong groups, unexpected session events

	count atomic.Int64 // deliveries logged, for the drain wait

	mu    sync.Mutex
	views map[string]int // group -> members in the latest view
}

// newSubscriber starts draining c into log.
func newSubscriber(idx int, c *client.Client, wl workload, origin time.Time, fill []byte, log *reclog) *subscriber {
	s := &subscriber{
		idx: idx, c: c, wl: wl, origin: origin, fill: fill,
		done:  make(chan struct{}),
		log:   log,
		views: make(map[string]int),
	}
	if !wl.open {
		s.credits = make(chan struct{}, wl.outstanding)
		for i := 0; i < wl.outstanding; i++ {
			s.credits <- struct{}{}
		}
	}
	go s.loop()
	return s
}

func (s *subscriber) loop() {
	defer close(s.done)
	for ev := range s.c.Events() {
		switch m := ev.(type) {
		case *client.Message:
			at := time.Since(s.origin)
			key, err := checkPayload(s.fill, s.wl.size, m.Payload)
			switch {
			case err != nil:
				s.anomaly(err.Error())
				continue
			case len(m.Groups) != 1 || keyGroup(key) >= len(s.wl.groups) || m.Groups[0] != s.wl.groups[keyGroup(key)]:
				s.anomaly(fmt.Sprintf("message %#x delivered for groups %v", key, m.Groups))
				continue
			}
			if b := s.log.slot(); b != nil {
				putRecv(b, recvRec{key: key, at: at, seq: m.Seq})
			}
			s.count.Add(1)
			if s.credits != nil && keySender(key) == s.idx {
				select {
				case s.credits <- struct{}{}:
				default: // only a duplicate delivery can overfill; the checker reports it
				}
			}
		case *client.View:
			s.mu.Lock()
			s.views[m.Group] = len(m.Members)
			s.mu.Unlock()
		case *client.Rejection:
			s.rejections++
		default:
			s.anomaly(fmt.Sprintf("unexpected session event %T", ev))
		}
	}
}

func (s *subscriber) anomaly(msg string) {
	if len(s.anomalies) < 8 {
		s.anomalies = append(s.anomalies, fmt.Sprintf("subscriber %d: %s", s.idx, msg))
	}
}

// waitViews blocks until the latest view of every group has n members.
func (s *subscriber) waitViews(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		ok := true
		for _, g := range s.wl.groups {
			ok = ok && s.views[g] == n
		}
		s.mu.Unlock()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriber %d did not see %d members in every group within %v", s.idx, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
