// Package accelring is a from-scratch Go reproduction of "Fast Total
// Ordering for Modern Data Centers" (Babay and Amir, Johns Hopkins
// University): the Accelerated Ring protocol, the original Totem-style
// Ring protocol it improves on, the Extended Virtual Synchrony membership
// substrate both need, real UDP and in-process transports, a Spread-like
// daemon/group layer, and a discrete-event testbed simulator that
// regenerates every figure of the paper's evaluation.
//
// This package is the public surface. A participant is opened with
// functional options and then joins groups, multicasts totally ordered
// messages, and receives a typed event stream:
//
//	node, err := accelring.Open(ctx,
//		accelring.WithSelf(1),
//		accelring.WithWire(accelring.WireConfig{Transport: hub.Endpoint(...)}),
//		accelring.WithWindows(20, 160, 15),
//	)
//	...
//	node.Join("chat")
//	node.Send(accelring.Agreed, []byte("hello"), "chat")
//	ev, err := node.Receive(ctx)
//
// Configuration is validated up front (Config.Validate); failures on the
// request paths use exported sentinels (ErrClosed, ErrNotReady,
// ErrNotMember, ...), so callers branch with errors.Is. A ring that
// re-forms after a partition, merge or crash queues Join/Leave/Send and
// orders them once it has formed again. Passing a metrics Registry via
// WithObserver enables counters, latency histograms, and token-round
// traces, served over HTTP by StartDebugServer at /debug/vars,
// /debug/ring, and /debug/pprof.
//
// Deployments that prefer the Spread process model — one daemon per
// machine, many clients attaching over sockets — use cmd/ringdaemon with
// the internal client library instead of this in-process facade.
//
// Start with examples/quickstart, then see DESIGN.md for the system
// inventory and EXPERIMENTS.md for the reproduction results.
package accelring
