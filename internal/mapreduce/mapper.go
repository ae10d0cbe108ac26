package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/paillier"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// solver runs a mapper's Contribution under the job's retry budget and
// journals each solve. The mapper loop calls it inline; under bounded
// staleness the background worker (asyncComputer) does.
type solver struct {
	mapper   IterativeMapper
	retries  int
	retryCtr *telemetry.Counter
	journal  *telemetry.Journal // flight recorder; nil when telemetry is off
	node     string             // this mapper's endpoint name, the journal's emitting-node label
	trace    telemetry.TraceID  // session trace identity, echoed on every send
}

// contribute computes round iter's contribution, re-invoking a failing
// Contribution up to the retry budget. The error is the last attempt's.
func (s *solver) contribute(iter int, state []float64) ([]float64, error) {
	//ppml:flow-ok the round counter is decoded from the reducer's public state broadcast — coordination metadata, not payload content
	s.journal.Emit(s.node, "solve.start", s.trace, int32(iter), 0, "", "", 0, 0)
	start := time.Now()
	for attempt := 0; ; attempt++ {
		contrib, err := s.mapper.Contribution(iter, state)
		if err == nil {
			//ppml:flow-ok the round counter is decoded from the reducer's public state broadcast — coordination metadata, not payload content
			s.journal.Emit(s.node, "solve.end", s.trace, int32(iter), 0, "", "", 0, time.Since(start).Seconds())
			return contrib, nil
		}
		if attempt >= s.retries {
			return nil, err
		}
		s.retryCtr.Inc()
	}
}

type mapperNodeConfig struct {
	solver
	id         int
	session    uint64
	parentSpan uint64 // reducer's session span, the trace's parent edge
	names      []string
	ep         transport.Endpoint
	agg        Aggregation
	maskMode   MaskMode
	codec      fixedpoint.Codec
	dim        int
	elastic    bool          // ready/roster handshake: elastic rounds under masked aggregation
	straggler  time.Duration // elastic mode: per-attempt mask-exchange deadline
	staleness  int           // bounded-staleness window S; 0 = synchronous rounds
	decay      float64       // κ, the per-round stale-share discount
	pack       *paillier.Packing
	cipherCtr  *telemetry.Counter
	sstel      *securesum.Telemetry

	// Per-session protocol state, built by runMapperNode.
	seeded     *securesum.SeededSession
	perRound   *securesum.PerRoundParty
	async      *asyncComputer
	encScratch []uint64 // reusable fixed-point encode buffer (Paillier path)
}

// header returns the session envelope for round iter, carrying the trace
// context every mapper echoes back to the reducer.
func (c *mapperNodeConfig) header(iter int32) transport.Header {
	return transport.Header{Session: c.session, Round: iter, Trace: c.trace, ParentSpan: c.parentSpan}
}

// idleFilter demultiplexes a Mapper between rounds: a fast peer's secure-
// summation masks for the upcoming round (per-round mode only; seeded mode
// has no mid-session mask traffic) wait in the reorder buffer until this
// node's broadcast arrives and the protocol round claims them; other
// sessions' traffic is held untouched; everything else of this session
// (broadcast, stop, or a genuinely unexpected kind) is delivered to the
// loop below.
func idleFilter(session uint64) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session != session {
			return transport.Defer
		}
		if m.Kind == securesum.KindMask {
			return transport.Defer
		}
		return transport.Accept
	}
}

// runMapperNode is the long-lived Mapper loop of every driver mode: wait for
// a broadcast, compute the local contribution, hand it to the aggregation
// protocol; exit on stop. Strict rounds, and the roster-oblivious plain and
// Paillier aggregations under any driver, send the share straight away.
// Elastic masked rounds first declare ready and then serve every roster
// attempt of the round until the Reducer moves on. A contribution failure
// past the retry budget aborts: under strict rounds the job fails, under
// elastic ones this mapper is permanently demoted.
func runMapperNode(ctx context.Context, cfg mapperNodeConfig) error {
	// Masked aggregation keeps per-session protocol state so every round
	// reuses the same scratch. Seeded mode additionally runs the one-time
	// seed handshake here, before the round loop: each Mapper's first action
	// is sending its seeds, so the exchange completes without any round
	// message interleaving (the reducer's early broadcasts wait in the
	// reorder buffer).
	if cfg.agg == AggregationMasked {
		var err error
		if cfg.maskMode == MaskPerRound {
			cfg.perRound, err = securesum.NewPerRoundParty(cfg.ep, cfg.names, cfg.id, reducerName, cfg.dim, cfg.codec, nil)
			if cfg.perRound != nil {
				cfg.perRound.SetTelemetry(cfg.sstel)
			}
		} else {
			cfg.seeded, err = securesum.SetupSeeded(ctx, cfg.ep, cfg.names, cfg.id, cfg.dim, cfg.codec, nil, cfg.header(securesum.SetupRound), cfg.sstel)
		}
		if err != nil {
			return fmt.Errorf("mapper %d aggregation setup: %w", cfg.id, err)
		}
	}
	// Bounded staleness: Contribution calls move to a background worker so
	// the protocol loop can answer a broadcast with the newest completed
	// (≤ S rounds old) contribution instead of stalling the roster.
	if cfg.staleness > 0 {
		cfg.async = newAsyncComputer(cfg.solver)
		defer cfg.async.close()
	}
	m := len(cfg.names)
	everyone := transport.FullRoster(m).Bools(m) // the strict mask telescope
	idle := idleFilter(cfg.session)
	var next *transport.Message // a broadcast or stop that ended the previous round
	for {
		var msg transport.Message
		if next != nil {
			msg, next = *next, nil
		} else {
			var err error
			if msg, err = cfg.ep.RecvMatch(ctx, idle); err != nil {
				return fmt.Errorf("mapper %d: %w", cfg.id, err)
			}
		}
		switch msg.Kind {
		case KindStop:
			return nil
		case KindBroadcast:
		case KindRoster:
			// A roster for a round we never saw the broadcast of (we were
			// mid-catch-up); we have no contribution for it, so skip.
			continue
		default:
			return fmt.Errorf("%w: unexpected %q while idle", ErrBadJob, msg.Kind)
		}
		iter, state, err := decodeStatePayload(msg.Payload)
		if err != nil {
			return fmt.Errorf("mapper %d: %w", cfg.id, err)
		}
		hdr := cfg.header(int32(iter))
		if cfg.elastic {
			// Round advance: deferred masks of dead attempts from earlier
			// rounds will never be claimed; sweep them.
			if ev, ok := cfg.ep.(transport.Evictor); ok {
				ev.Evict(staleRoundFilter(cfg.session, hdr.Round))
			}
		}
		contrib, stamp, err := cfg.compute(ctx, iter, state)
		if err != nil {
			//ppml:err-ok best-effort abort notification: the Contribution error below is the one worth reporting
			_ = cfg.ep.Send(ctx, reducerName, KindAbort, hdr, []byte(err.Error()))
			//ppml:flow-ok iter is decoded from the reducer's public state broadcast; the round counter is coordination metadata, not payload content
			return fmt.Errorf("%w: mapper %d at iteration %d: %v", ErrAborted, cfg.id, iter, err)
		}
		if cfg.elastic {
			next, err = cfg.serveRosters(ctx, hdr, contrib, stamp)
		} else {
			next, err = cfg.send(ctx, hdr, contrib, everyone)
		}
		if err != nil {
			return err
		}
	}
}

// compute returns round iter's contribution and the staleness stamp for its
// ready declaration: solved inline, or under bounded staleness the newest
// completed contribution within the window, scaled by κ^s.
func (c *mapperNodeConfig) compute(ctx context.Context, iter int, state []float64) ([]float64, []byte, error) {
	if c.async == nil {
		contrib, err := c.contribute(iter, state)
		return contrib, nil, err
	}
	// Hand the worker the new state (newest wins), then wait only until SOME
	// contribution within the staleness window exists — usually the one
	// already in hand, making ready effectively instant for a healthy mapper.
	c.async.submit(iter, state)
	if err := c.async.wait(ctx, iter-c.staleness); err != nil {
		return nil, nil, err
	}
	return c.async.share(iter, c.decay)
}

// send hands a roster-oblivious round's contribution to the aggregation
// protocol under hdr, masking over the live set. It returns a control
// message (the job's stop) that landed mid mask exchange.
func (c *mapperNodeConfig) send(ctx context.Context, hdr transport.Header, contrib []float64, live []bool) (*transport.Message, error) {
	switch c.agg {
	case AggregationPlain:
		//ppml:plaintext-ok AggregationPlain is the deliberate no-privacy ablation baseline (Fig. 5 comparisons); selecting it is an explicit opt-out
		if err := c.ep.Send(ctx, reducerName, KindPlainShare, hdr, encodeVector(contrib)); err != nil {
			return nil, fmt.Errorf("mapper %d: %w", c.id, err)
		}
	case AggregationPaillier:
		payload, scratch, err := encryptContribution(contrib, c.codec, c.pack, c.encScratch, c.cipherCtr)
		c.encScratch = scratch
		if err != nil {
			//ppml:err-ok best-effort abort notification: the encryption error below is the one worth reporting
			_ = c.ep.Send(ctx, reducerName, KindAbort, hdr, []byte(err.Error()))
			return nil, fmt.Errorf("mapper %d: %w", c.id, err)
		}
		if err := c.ep.Send(ctx, reducerName, KindCipherShare, hdr, payload); err != nil {
			return nil, fmt.Errorf("mapper %d: %w", c.id, err)
		}
	default:
		ctrl, err := c.maskedShare(ctx, hdr, contrib, live)
		if err != nil {
			// A stop or abort that lands mid-protocol unwinds here; it is
			// not this mapper's fault, so report it plainly.
			return nil, fmt.Errorf("mapper %d aggregation: %w", c.id, err)
		}
		return ctrl, nil
	}
	return nil, nil
}

// maskedShare derives this mapper's masked share for hdr's round over the
// live roster and sends it. Seeded mode derives the round's masks locally;
// per-round mode exchanges fresh masks with every live peer first and
// returns any control message (a new roster, a stop) that landed mid
// exchange.
func (c *mapperNodeConfig) maskedShare(ctx context.Context, hdr transport.Header, contrib []float64, live []bool) (*transport.Message, error) {
	c.sstel.JournalMaskPhase(c.node, "mask.start", c.trace, hdr.Round, hdr.Attempt, 0)
	maskStart := time.Now()
	if c.perRound != nil {
		ctrl, err := c.perRound.RoundRoster(ctx, hdr, contrib, live)
		if err == nil {
			c.sstel.JournalMaskPhase(c.node, "mask.end", c.trace, hdr.Round, hdr.Attempt, time.Since(maskStart))
		}
		return ctrl, err
	}
	payload, err := c.seeded.RoundShareBytesFor(hdr.Round, contrib, live)
	if err != nil {
		return nil, err
	}
	c.sstel.JournalMaskPhase(c.node, "mask.end", c.trace, hdr.Round, hdr.Attempt, time.Since(maskStart))
	if err := c.ep.Send(ctx, reducerName, securesum.KindShare, hdr, payload); err != nil {
		return nil, err
	}
	c.sstel.RecordShare(len(payload))
	c.journal.Emit(c.node, "share.sent", c.trace, hdr.Round, hdr.Attempt, reducerName, securesum.KindShare, int64(len(payload)), 0)
	return nil, nil
}

// ready declares that this mapper holds a contribution for hdr's round.
func (c *mapperNodeConfig) ready(ctx context.Context, hdr transport.Header, stamp []byte) error {
	if err := c.ep.Send(ctx, reducerName, KindReady, hdr, stamp); err != nil {
		return fmt.Errorf("mapper %d: ready: %w", c.id, err)
	}
	//ppml:flow-ok the round counter (from the public state broadcast) and the staleness stamp are round indices — coordination metadata, never share contents
	c.journal.Emit(c.node, "ready.sent", c.trace, hdr.Round, 0, reducerName, "", 0, float64(stalenessStamp(stamp)))
	return nil
}

// serveRosters declares hdr's round ready and serves every roster attempt
// the Reducer declares for it, until the next broadcast or the stop arrives,
// which it returns. A roster that leaves this mapper out has demoted it for
// the round; it waits for the next broadcast.
func (c *mapperNodeConfig) serveRosters(ctx context.Context, hdr transport.Header, contrib []float64, stamp []byte) (*transport.Message, error) {
	if err := c.ready(ctx, hdr, stamp); err != nil {
		return nil, err
	}
	waitF := rosterWaitFilter(c.session, hdr.Round)
	var inner *transport.Message
	for {
		var msg transport.Message
		if inner != nil {
			msg, inner = *inner, nil
		} else {
			var err error
			if msg, err = c.ep.RecvMatch(ctx, waitF); err != nil {
				return nil, fmt.Errorf("mapper %d: %w", c.id, err)
			}
		}
		switch msg.Kind {
		case KindStop:
			return &msg, nil
		case KindBroadcast:
			if msg.Round > hdr.Round {
				return &msg, nil
			}
			continue
		case KindRoster:
		default:
			return nil, fmt.Errorf("%w: unexpected %q awaiting roster", ErrBadJob, msg.Kind)
		}
		if !msg.Roster.Has(c.id) {
			continue // demoted this round; wait for the next broadcast
		}
		c.journal.Emit(c.node, "roster.recv", c.trace, hdr.Round, msg.Attempt, "", "", 0, float64(msg.Roster.Count()))
		shareHdr := hdr
		shareHdr.Roster, shareHdr.Attempt = msg.Roster, msg.Attempt
		actx, cancel := ctx, context.CancelFunc(func() {})
		if c.perRound != nil && c.straggler > 0 {
			actx, cancel = context.WithTimeout(ctx, c.straggler)
		}
		ctrl, err := c.maskedShare(actx, shareHdr, contrib, msg.Roster.Bools(len(c.names)))
		cancel()
		if err != nil && c.perRound != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			// Wedged mask exchange: a roster member died before its masks
			// arrived. Abandon the attempt and re-declare readiness — the
			// Reducer rebuilds the roster from whoever re-declares, and this
			// attempt's stale masks are dropped by the next attempt's filter
			// (the attempt stamp, not the roster, identifies a derivation).
			if err := c.ready(ctx, hdr, stamp); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("mapper %d aggregation: %w", c.id, err)
		}
		inner = ctrl // a newer roster or a stop landed mid-attempt
	}
}

// rosterWaitFilter demultiplexes a mapper between declaring ready and the
// round resolving: roster declarations for this round and the job's control
// messages are delivered; a NEWER broadcast means the Reducer moved on
// without us (we were demoted) and is delivered so the mapper can catch up;
// mask traffic for attempts whose roster declaration hasn't reached us yet
// waits in the reorder buffer.
func rosterWaitFilter(session uint64, round int32) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session != session {
			return transport.Defer
		}
		switch m.Kind {
		case KindStop:
			return transport.Accept
		case KindBroadcast:
			if m.Round > round {
				return transport.Accept
			}
			return transport.Drop // duplicate of a round we already hold
		case KindRoster:
			switch {
			case m.Round < round:
				return transport.Drop
			case m.Round > round:
				return transport.Defer
			}
			return transport.Accept
		case securesum.KindMask:
			if m.Round < round {
				return transport.Drop
			}
			return transport.Defer
		}
		return transport.Accept
	}
}
