package accelring_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"accelring"
)

// ExampleOpen runs a single-node ring in process: the node forms a
// singleton ring, joins a group, and receives its own totally ordered
// message.
func ExampleOpen() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	hub := accelring.NewHub() // in-process transport; give WithWire UDP addresses on a real network
	ep, err := hub.Endpoint(1, 1024, 16)
	if err != nil {
		log.Fatal(err)
	}

	node, err := accelring.Open(ctx,
		accelring.WithSelf(1),
		accelring.WithWire(accelring.WireConfig{Transport: ep}),
		accelring.WithWindows(10, 100, 7),
		accelring.WithTimeouts(accelring.Timeouts{
			JoinInterval: 5 * time.Millisecond,
			Gather:       20 * time.Millisecond,
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	if err := node.WaitReady(ctx); err != nil {
		log.Fatal(err)
	}
	if err := node.Join("chat"); err != nil {
		log.Fatal(err)
	}
	if err := node.Send(accelring.Agreed, []byte("hello, ring"), "chat"); err != nil {
		log.Fatal(err)
	}

	for {
		ev, err := node.Receive(ctx)
		if err != nil {
			log.Fatal(err)
		}
		switch e := ev.(type) {
		case *accelring.GroupView:
			fmt.Printf("view of %s: %d member(s)\n", e.Group, len(e.Members))
		case *accelring.Message:
			fmt.Printf("%s message from %v: %s\n", e.Service, e.Sender, e.Payload)
			return
		}
	}

	// Output:
	// view of chat: 1 member(s)
	// agreed message from 1#1: hello, ring
}
