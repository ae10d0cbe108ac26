package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// probeNet is the benchmark's view of a training job from outside the
// program: it wraps the transport the job runs on and timestamps traffic at
// the endpoint boundary. Untraced it reads the clock once per reducer
// broadcast round (the round clock behind converge_s) and once for the first
// broadcast a mapper accepts (the end of set-up). Traced it also records
// every Send and RecvMatch with its kind, round, size and blocking time.
type probeNet struct {
	inner  transport.Network
	start  time.Time
	traced bool

	setupEnd atomic.Int64 // ns since start of the first broadcast a mapper accepted; 0 = none yet

	mu     sync.Mutex
	bcast  []time.Duration // first reducer broadcast of each round, since start
	events []netEvent      // traced only
}

// Endpoint roles: the reducer is node -1, mapper-i is node i.
const reducerNode = -1

type netOp uint8

const (
	opSend netOp = iota
	opRecv
)

// netEvent is one endpoint call. at is when the call returned (a receive's
// arrival, a send's completion); dur is how long it blocked.
type netEvent struct {
	at, dur time.Duration
	node    int
	op      netOp
	kind    string
	round   int32
	bytes   int
	roster  int // live count of a roster declaration, 0 otherwise
}

func newProbeNet(inner transport.Network, start time.Time, traced bool) *probeNet {
	return &probeNet{inner: inner, start: start, traced: traced}
}

func (p *probeNet) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := p.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	node := reducerNode
	if id, ok := strings.CutPrefix(name, "mapper-"); ok {
		if node, err = strconv.Atoi(id); err != nil {
			return nil, fmt.Errorf("perfbench: endpoint %q: %w", name, err)
		}
	}
	return &probeEndpoint{inner: ep, net: p, node: node}, nil
}

func (p *probeNet) Stats() transport.Stats { return p.inner.Stats() }
func (p *probeNet) Close() error           { return p.inner.Close() }

// SetTelemetry forwards the registry so the transport's own counters keep
// working under the wrapper.
func (p *probeNet) SetTelemetry(r *telemetry.Registry) {
	if t, ok := p.inner.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
		t.SetTelemetry(r)
	}
}

func (p *probeNet) since() time.Duration { return time.Since(p.start) }

// roundClock returns the first-broadcast time of every round and the end of
// set-up (zero if no mapper ever accepted a broadcast).
func (p *probeNet) roundClock() ([]time.Duration, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.bcast...), time.Duration(p.setupEnd.Load())
}

func (p *probeNet) record(e netEvent) {
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
}

type probeEndpoint struct {
	inner transport.Endpoint
	net   *probeNet
	node  int
}

func (e *probeEndpoint) Name() string { return e.inner.Name() }

func (e *probeEndpoint) Send(ctx context.Context, to, kind string, hdr transport.Header, payload []byte) error {
	p := e.net
	if e.node == reducerNode && kind == mapreduce.KindBroadcast {
		p.mu.Lock()
		if int(hdr.Round) == len(p.bcast) {
			p.bcast = append(p.bcast, p.since())
		}
		p.mu.Unlock()
	}
	if !p.traced {
		return e.inner.Send(ctx, to, kind, hdr, payload)
	}
	t0 := p.since()
	err := e.inner.Send(ctx, to, kind, hdr, payload)
	t1 := p.since()
	p.record(netEvent{at: t1, dur: t1 - t0, node: e.node, op: opSend, kind: kind,
		round: hdr.Round, bytes: len(payload), roster: hdr.Roster.Count()})
	return err
}

func (e *probeEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	return e.RecvMatch(ctx, nil)
}

func (e *probeEndpoint) RecvMatch(ctx context.Context, f transport.Filter) (transport.Message, error) {
	p := e.net
	var t0 time.Duration
	if p.traced {
		t0 = p.since()
	}
	msg, err := e.inner.RecvMatch(ctx, f)
	if err != nil {
		return msg, err
	}
	var t1 time.Duration
	if e.node != reducerNode && msg.Kind == mapreduce.KindBroadcast && p.setupEnd.Load() == 0 {
		t1 = p.since()
		p.setupEnd.CompareAndSwap(0, int64(t1))
	}
	if p.traced {
		if t1 == 0 {
			t1 = p.since()
		}
		p.record(netEvent{at: t1, dur: t1 - t0, node: e.node, op: opRecv, kind: msg.Kind,
			round: msg.Round, bytes: len(msg.Payload)})
	}
	return msg, nil
}

// Evict forwards to the inner endpoint's reorder buffer, as the round engines
// expect of any endpoint that has one.
func (e *probeEndpoint) Evict(f transport.Filter) int {
	if ev, ok := e.inner.(transport.Evictor); ok {
		return ev.Evict(f)
	}
	return 0
}

func (e *probeEndpoint) Close() error { return e.inner.Close() }
