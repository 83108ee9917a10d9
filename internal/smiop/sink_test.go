package smiop

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"itdos/internal/pool"
	"itdos/internal/transport"
	"itdos/internal/transport/tcp"
)

// sinkFrom and sinkTo are the identities frames travel between through
// sinkTransport.
const sinkFrom, sinkTo transport.NodeID = "bank/r2", "client/inbox"

// sinkTransport is a started TCP transport hosting sinkFrom, whose one peer
// hosts sinkTo at a listener that reads and discards every byte: a sealed
// frame handed to Send ends written to a socket. Tests call Send from their
// own goroutine: remote sends touch nothing the transport's loop runs.
func sinkTransport(t testing.TB) *tcp.Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c) }()
		}
	}()
	tr, err := tcp.New(tcp.Config{Process: "bank",
		Hosts: map[string][]string{"bank": {"bank"}, "client": {"client"}},
		Peers: map[string]string{"client": ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.Close()
		ln.Close()
	})
	return tr
}

// sendFrames hands every frame to tr with the frame as its owner.
func sendFrames(tr *tcp.Transport, frames []*pool.Buffer) {
	for _, f := range frames {
		tr.Send(sinkFrom, sinkTo, f.B, f)
	}
}

// awaitPuts waits until the arena has taken back every buffer it gave out
// since before, which the transport does as its writes complete, and fails
// as soon as it has taken back more: a buffer released twice.
func awaitPuts(t testing.TB, before pool.Stats) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := pool.ReadStats()
		gets, puts := now.Gets-before.Gets, now.Puts-before.Puts
		if puts > gets {
			t.Fatalf("pool.Get %d times, returned %d buffers: one went back twice", gets, puts)
		}
		if puts == gets {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool.Get %d times, returned %d buffers", gets, puts)
		}
		runtime.Gosched()
	}
}
