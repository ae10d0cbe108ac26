package mapreduce

// The Reducer's round engine: one state machine for every driver mode.
//
// Every round broadcasts the state to every mapper the Reducer has not
// written off and folds the answers into one aggregate. The modes differ
// only in how the round's participation set — its roster — is decided:
//
//   - Strict (the default): the roster is the full, fixed cohort. There are
//     no ready or roster messages; the round waits for every share, and an
//     abort or an expired RoundTimeout fails the job.
//   - Elastic (StragglerTimeout): the roster is whoever answers before the
//     deadline. Plain and Paillier shares do not depend on who else
//     participates, so the Reducer simply folds whatever arrives in time and
//     the responders ARE the roster. Masked aggregation runs two phases: the
//     Reducer collects cheap KindReady answers until everyone replied or the
//     deadline fires, and declares the responders with a KindRoster message
//     (the roster travels in the envelope). The members then derive shares
//     whose pairwise-mask telescope spans only the roster
//     (securesum.RoundShareFor / PerRoundParty.RoundRoster), so the masks
//     still cancel at the Reducer. If a member dies between declaring ready
//     and delivering its share, the share phase times out, the Reducer
//     demotes the missing members, and re-declares a strictly smaller roster
//     for the same round — every message is stamped with the roster attempt
//     it was produced under, so superseded-attempt shares are identified and
//     dropped rather than poisoning the sum.
//   - Async (Staleness): elastic masked rounds whose ready declarations carry
//     a staleness stamp, which the Reducer turns into the κ^s weight the
//     consensus renormalizes by.
//
// A demoted mapper is not dead: it still receives every round's broadcast,
// and the round it answers in time it re-enters the roster (rejoin), with
// the current consensus state in hand — ADMM tolerates the stale local dual
// state. Only a KindAbort (a mapper whose Contribution failed past its retry
// budget), an unreachable endpoint, or WriteOffAfter silent rounds is a
// permanent demotion.

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/paillier"
	"github.com/ppml-go/ppml/internal/parallel"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// reducer is the Reducer-side state of one job.
type reducer struct {
	session    uint64
	trace      telemetry.TraceID
	parentSpan uint64
	journal    *telemetry.Journal
	names      []string
	ep         transport.Endpoint

	elastic   bool
	maskMode  MaskMode
	shareKind string // the wire kind of the aggregation's shares
	// timeout is the collection window: the StragglerTimeout roster deadline
	// under elastic rounds, the RoundTimeout abort bound under strict ones.
	// Zero waits indefinitely.
	timeout       time.Duration
	quorum        int
	writeOffAfter int
	staleness     int     // bounded-staleness window S; 0 = synchronous
	decay         float64 // κ, the stale-share discount

	fold       fold
	bcast      []byte // the broadcast encoding, reused every round
	checkpoint *CheckpointPlan

	rounds       *telemetry.Counter
	roundDur     *telemetry.Histogram
	timeouts     *telemetry.Counter
	participants *telemetry.Gauge
	demotions    *telemetry.Counter
	rejoins      *telemetry.Counter
	staleHist    *telemetry.Histogram

	res *DriverResult

	idOf    map[string]int
	dead    []bool    // permanently demoted (aborted, unreachable, or written off)
	silent  []int     // consecutive rounds each mapper missed the roster
	weights []float64 // per-mapper κ^s from this round's ready stamps (staleness mode)
}

// emit journals one reducer lifecycle event.
func (d *reducer) emit(event string, r, attempt int32, peer, kind string, bytes int64, value float64) {
	//ppml:flow-ok the round counter resumes from checkpoint state; it, the attempt counter, node names, wire kinds, sizes and durations are public coordination metadata, not payload content
	d.journal.Emit(reducerName, event, d.trace, r, attempt, peer, kind, bytes, value)
}

// header returns the session envelope for round r.
func (d *reducer) header(r int32) transport.Header {
	return transport.Header{Session: d.session, Round: r, Trace: d.trace, ParentSpan: d.parentSpan}
}

// recordStaleness parses the optional staleness stamp on a ready
// declaration. An async mapper reports how many rounds old the contribution
// it is about to share is; the reducer weights that share κ^s in the
// consensus normalization. The stamp is public coordination metadata — a
// round-counter difference, never derived from share contents. A strict
// (empty) declaration is weight 1.
func (d *reducer) recordStaleness(id int, payload []byte) {
	if d.weights == nil {
		return
	}
	s := stalenessStamp(payload)
	//ppml:flow-ok the staleness stamp is a public round-age counter the mapper declares for weighting — a round-index difference, never derived from share contents
	d.staleHist.Observe(float64(s))
	w := 1.0
	for k := 0; k < s; k++ {
		w *= d.decay
	}
	d.weights[id] = w
}

// stalenessStamp decodes the optional round-age byte on a ready declaration
// — 0 for a strict (empty) declaration. The stamp is a public round-counter
// difference, never derived from share contents.
func stalenessStamp(payload []byte) int {
	if len(payload) >= 1 {
		return int(payload[0])
	}
	return 0
}

// rosterWeight sums the recorded κ^s weights over the final roster.
func (d *reducer) rosterWeight(roster transport.Roster) float64 {
	total := 0.0
	for i := range d.weights {
		if roster.Has(i) {
			total += d.weights[i]
		}
	}
	return total
}

// staleRoundFilter drops this session's frames older than round (the setup
// round's seed exchange excepted); everything else stays buffered.
func staleRoundFilter(session uint64, round int32) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session == session && m.Round < round && m.Round != securesum.SetupRound {
			return transport.Drop
		}
		return transport.Defer
	}
}

// roundFilter scopes one collection pass on the Reducer: aborts of this
// session are delivered no matter which round raised them; older rounds'
// leftovers are dropped and counted rather than poisoning the current
// aggregate; a fast mapper's next-round traffic waits in the reorder buffer;
// and this round's messages of kind are delivered. For a masked roster
// attempt (roster non-nil) a share must also carry the current attempt and
// roster: shares from a superseded attempt were derived over a telescope that
// can no longer cancel (a re-ready retry can even reuse the same roster with
// fresh randomness, which is why the attempt stamp, not the roster, is the
// identity). Ready declarations of the current round are held, not dropped: a
// wedged mapper's re-declaration races the Reducer's share deadline, and
// recovery must not depend on which timer fired first — the re-ready pass
// finds the held declaration in the reorder buffer. Unclaimed ones are swept
// by the round-advance eviction. Anything else of this round is dropped.
func roundFilter(session uint64, round int32, kind string, attempt int32, roster transport.Roster) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		switch {
		case m.Session != session:
			return transport.Defer
		case m.Kind == KindAbort:
			return transport.Accept
		case m.Round < round:
			return transport.Drop
		case m.Round > round:
			return transport.Defer
		case m.Kind == kind && (roster == nil || m.Attempt == attempt && m.Roster.Equal(roster)):
			return transport.Accept
		case m.Kind == KindReady:
			return transport.Defer
		}
		return transport.Drop
	}
}

// run runs the rounds and returns the final state. The caller owns
// teardown.
func (d *reducer) run(ctx context.Context, job IterativeJob, state []float64, startIter int) ([]float64, error) {
	m := len(d.names)
	d.idOf = make(map[string]int, m)
	for id, name := range d.names {
		d.idOf[name] = id
	}
	d.dead = make([]bool, m)
	d.silent = make([]int, m)
	prev := transport.FullRoster(m)
	rosterRed, scalable := job.Reducer.(RosterReducer)
	weightRed, weighted := job.Reducer.(WeightedReducer)
	if d.staleness > 0 {
		if !weighted {
			return state, fmt.Errorf("%w: Staleness needs a WeightedReducer (the reducer cannot renormalize stale shares)", ErrBadJob)
		}
		d.weights = make([]float64, m)
	}

	for iter := startIter; iter < job.MaxIterations; iter++ {
		roundStart := time.Now()
		spanCtx, roundSpan := telemetry.StartSpan(ctx, "round")
		r := int32(iter)
		d.emit("round.start", r, 0, "", "", 0, 0)
		// Round advance: late frames of finished rounds — superseded-attempt
		// shares, late ready declarations, leftovers of a timed-out round —
		// will never be claimed by any future filter; sweep them out of the
		// reorder buffer and into the stale counter instead of stashing them
		// until the endpoint closes.
		if ev, ok := d.ep.(transport.Evictor); ok {
			ev.Evict(staleRoundFilter(d.session, r))
		}

		// The communication round — broadcast through collected aggregate —
		// is what the span and the histogram measure; a round that errors
		// out ends its span but is not observed as a completed round.
		roster, sum, err := d.round(spanCtx, r, state)
		roundSpan.End()
		if err != nil {
			return state, err
		}
		roundSecs := time.Since(roundStart).Seconds()
		d.roundDur.Observe(roundSecs)
		d.rounds.Inc()
		d.emit("round.end", r, 0, "", "", 0, roundSecs)
		if d.elastic {
			d.track(r, prev, roster)
			prev = roster
			if scalable {
				rosterRed.SetRoundParticipants(roster.Count())
			}
			if d.weights != nil {
				weightRed.SetRoundWeight(d.rosterWeight(roster))
			}
		}
		next, done, err := job.Reducer.Combine(iter, sum)
		if err != nil {
			//ppml:flow-ok iter resumes from the checkpointed round counter — coordination metadata every learner already knows, not payload content
			return state, fmt.Errorf("%w: reducer at iteration %d: %v", ErrAborted, iter, err)
		}
		state = append(state[:0], next...)
		d.res.Iterations = iter + 1
		if cp := d.checkpoint; cp != nil {
			every := cp.Every
			if every <= 0 {
				every = 1
			}
			if (iter+1)%every == 0 || done {
				if err := cp.Cluster.Write(cp.Path, encodeStatePayload(iter+1, state), ""); err != nil {
					return state, fmt.Errorf("mapreduce checkpoint: %w", err)
				}
			}
		}
		if done {
			d.res.Converged = true
			break
		}
	}
	return state, nil
}

// track records an elastic round's roster transitions against the previous
// round's roster: demotions, rejoins, and the missed-heartbeat write-off.
func (d *reducer) track(r int32, prev, roster transport.Roster) {
	d.participants.Set(float64(roster.Count()))
	for i := range d.names {
		switch {
		case prev.Has(i) && !roster.Has(i):
			d.demotions.Inc()
			d.res.Demotions++
			d.emit("mapper.demote", r, 0, d.names[i], "", 0, 0)
		case !prev.Has(i) && roster.Has(i):
			d.rejoins.Inc()
			d.res.Rejoins++
			d.emit("mapper.rejoin", r, 0, d.names[i], "", 0, 0)
		}
		// A mapper demoted WriteOffAfter rounds in a row is declared
		// permanently dead so later rounds stop waiting a straggler window
		// for it.
		if d.dead[i] {
			continue
		}
		if roster.Has(i) {
			d.silent[i] = 0
		} else if d.silent[i]++; d.writeOffAfter > 0 && d.silent[i] >= d.writeOffAfter {
			d.dead[i] = true
			d.emit("mapper.writeoff", r, 0, d.names[i], "", 0, float64(d.silent[i]))
		}
	}
}

// round executes one round: broadcast, then aggregate collection. It returns
// the roster the sum was folded over.
func (d *reducer) round(ctx context.Context, r int32, state []float64) (transport.Roster, []float64, error) {
	for i := range d.weights {
		d.weights[i] = 1
	}
	d.bcast = appendStatePayload(d.bcast[:0], int(r), state)
	live := transport.NewRoster(len(d.names))
	for i, name := range d.names {
		if d.dead[i] {
			continue
		}
		if err := d.ep.Send(ctx, name, KindBroadcast, d.header(r), d.bcast); err != nil {
			if !d.elastic || ctx.Err() != nil {
				return nil, nil, fmt.Errorf("mapreduce: broadcast: %w", err)
			}
			// An unreachable endpoint is a permanent demotion, not a job
			// failure — the exact stall the elastic driver exists to absorb.
			d.dead[i] = true
			continue
		}
		live.Add(i)
	}
	if live.Count() < d.quorum {
		//ppml:flow-ok the round counter resumes from checkpoint state — public coordination metadata, not payload content
		return nil, nil, fmt.Errorf("%w: %d mappers reachable at round %d, need %d", ErrQuorum, live.Count(), r, d.quorum)
	}
	if !d.elastic || d.fold.agg != AggregationMasked {
		return d.collectShares(ctx, r, live)
	}

	// Phase 1 — readiness. Everyone who answers before the deadline makes
	// the roster; the deadline only matters when someone doesn't.
	deadline := d.timeout
	if r == 0 {
		deadline *= setupGrace
	}
	roster, err := d.collectReady(ctx, r, live, deadline)
	if err != nil {
		return nil, nil, err
	}

	// Phase 2 — roster-scoped shares, with re-roster on mid-attempt death.
	// Every attempt either completes, shrinks the roster, or (re-ready with a
	// stable roster) burns one of a bounded number of stuck retries, so the
	// loop terminates.
	stuck := 0 // consecutive re-ready passes that shrank nothing
	for attempt := int32(0); ; attempt++ {
		if roster.Count() < d.quorum {
			//ppml:flow-ok the round counter resumes from checkpoint state — public coordination metadata, not payload content
			return nil, nil, fmt.Errorf("%w: roster of %d at round %d, need %d", ErrQuorum, roster.Count(), r, d.quorum)
		}
		next, outcome, err := d.attempt(ctx, r, attempt, roster)
		if err != nil {
			return nil, nil, err
		}
		switch outcome {
		case attemptDone:
			sum, err := d.fold.result()
			return roster, sum, err
		case attemptReready:
			// Zero shares under per-round masks: the likeliest cause is a
			// member that died between declaring ready and delivering its
			// masks, wedging every OTHER member mid mask exchange. The wedged
			// mappers time out and re-declare readiness; the dead one never
			// does, so re-collecting readiness from the superseded roster
			// (admitting a newcomer would grow the roster mid-round and break
			// the shrink-only attempt ordering) shrinks it without having to
			// guess who to blame.
			before := roster.Count()
			next, err = d.collectReady(ctx, r, roster.Clone(), d.timeout)
			if err != nil {
				return nil, nil, err
			}
			if next.Count() == before {
				if stuck++; stuck >= maxStuckAttempts {
					//ppml:flow-ok the round counter resumes from checkpoint state — public coordination metadata, not payload content
					return nil, nil, fmt.Errorf("%w: round %d produced no shares across %d attempts with a stable roster of %d — StragglerTimeout %v is shorter than the mask exchange", ErrQuorum, r, stuck, before, d.timeout)
				}
			} else {
				stuck = 0
			}
		}
		roster = next
	}
}

// maxStuckAttempts bounds consecutive re-ready retries that demote nobody: a
// roster that keeps answering ready but never lands a share means the
// straggler deadline is shorter than a healthy mask exchange, and retrying
// will not fix configuration.
const maxStuckAttempts = 3

// attemptOutcome is how one share-collection attempt resolved.
type attemptOutcome int

const (
	// attemptDone — every roster share arrived; the fold is complete.
	attemptDone attemptOutcome = iota
	// attemptRetry — members were demoted mid-attempt; re-run with the
	// shrunken roster.
	attemptRetry
	// attemptReready — nobody delivered a share under per-round masks; the
	// roster is presumed wedged and readiness must be re-collected.
	attemptReready
)

// setupGrace multiplies the ready deadline of round 0. The first readiness
// answer sits behind one-time costs — mapper boot, the pairwise mask-exchange
// setup, the first local solve — that the steady-state straggler window is
// not meant to police; demoting the whole cohort for a slow boot would abort
// a perfectly healthy job below quorum.
const setupGrace = 100

// phase is one collection pass's bookkeeping: who is expected to answer and
// who did.
type phase struct {
	attempt int32            // the roster attempt masked shares must carry
	roster  transport.Roster // the declared roster masked shares must carry; nil when roster-oblivious
	want    transport.Roster // members expected to answer
	got     transport.Roster // members that answered
	void    bool             // a roster member aborted mid-attempt
}

// gather receives round r's answers of kind — KindReady or the
// aggregation's share kind — from the members of p.want
// until each has answered or the window (0: none) closes, and reports
// whether it closed. Shares are folded as they land; ready declarations
// record their staleness stamp; duplicates and strangers are ignored. An
// abort fails a strict job outright. Under elastic rounds it permanently
// demotes its sender and stops waiting for it: a ready declaration it made
// is withdrawn, a share it already delivered stays folded (it was computed
// honestly before the mapper died), and a masked attempt it belonged to is
// void — that telescope can never complete.
func (d *reducer) gather(ctx context.Context, r int32, kind string, p *phase, window time.Duration) (bool, error) {
	wctx := ctx
	if window > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, window)
		defer cancel()
	}
	filter := roundFilter(d.session, r, kind, p.attempt, p.roster)
	for p.got.Count() < p.want.Count() {
		msg, err := d.ep.RecvMatch(wctx, filter)
		if err != nil {
			if window > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				d.timeouts.Inc()
				d.emit("round.timeout", r, p.attempt, "", kind, 0, float64(p.got.Count()))
				return true, nil
			}
			return false, fmt.Errorf("mapreduce reduce: %w", err)
		}
		id, ok := d.idOf[msg.From]
		if !ok {
			return false, fmt.Errorf("%w: %q from unknown party %q", ErrBadJob, msg.Kind, msg.From)
		}
		if msg.Kind == KindAbort {
			if !d.elastic {
				// The abort payload is a remote error string and may quote
				// remote data (a bad label, a share value); identify the
				// aborter, do not echo its bytes.
				return false, fmt.Errorf("%w: abort from %q", ErrAborted, msg.From)
			}
			wasDead := d.dead[id]
			d.dead[id] = true
			switch {
			case wasDead || !p.want.Has(id):
			case p.roster != nil:
				p.want.Remove(id)
				p.void = true
				return false, nil
			case !p.got.Has(id):
				p.want.Remove(id)
			case kind == KindReady:
				p.want.Remove(id)
				p.got.Remove(id)
			}
			continue
		}
		if !p.want.Has(id) || p.got.Has(id) {
			continue
		}
		if kind == KindReady {
			d.recordStaleness(id, msg.Payload)
			d.emit("ready.recv", r, 0, d.names[id], "", 0, float64(stalenessStamp(msg.Payload)))
		} else {
			if err := d.fold.add(id, msg.Payload); err != nil {
				return false, fmt.Errorf("share from %q: %w", msg.From, err)
			}
			d.emit("share.recv", r, p.attempt, d.names[id], kind, int64(len(msg.Payload)), 0)
		}
		p.got.Add(id)
	}
	return false, nil
}

// collectShares folds a roster-oblivious round — every strict round, and
// elastic plain or Paillier rounds — from the live mappers. Under strict
// rounds a closed window fails the job. Under elastic ones whoever delivered
// before the deadline IS the roster, and the partial sum is valid as-is (the
// Paillier packing budgeted its guard bits for the full cohort, so any
// subset stays in range).
func (d *reducer) collectShares(ctx context.Context, r int32, live transport.Roster) (transport.Roster, []float64, error) {
	if err := d.fold.reset(live.Count()); err != nil {
		return nil, nil, err
	}
	p := &phase{want: live, got: transport.NewRoster(len(d.names))}
	timedOut, err := d.gather(ctx, r, d.shareKind, p, d.timeout)
	if err != nil {
		return nil, nil, err
	}
	if timedOut && !d.elastic {
		//ppml:flow-ok the round counter resumes from checkpoint state — public coordination metadata, not payload content
		return nil, nil, fmt.Errorf("mapreduce: round %d exceeded RoundTimeout %v: %w", r, d.timeout, context.DeadlineExceeded)
	}
	if p.got.Count() < d.quorum {
		//ppml:flow-ok the round counter resumes from checkpoint state — public coordination metadata, not payload content
		return nil, nil, fmt.Errorf("%w: %d shares at round %d, need %d", ErrQuorum, p.got.Count(), r, d.quorum)
	}
	sum, err := d.fold.result()
	return p.got, sum, err
}

// collectReady gathers round r's KindReady answers from the members of want
// until all of them replied or the deadline fires, and returns the resulting
// roster. A below-quorum roster is usually transient — the cohort can be mid
// catch-up after a wedged previous round, with its late readys already queued
// or in flight — so the straggler window is re-armed a bounded number of
// times (keeping the readys already collected) before the caller sees a
// roster it would abort on. Persistent silence across every retry is a real
// quorum loss.
func (d *reducer) collectReady(ctx context.Context, r int32, want transport.Roster, deadline time.Duration) (transport.Roster, error) {
	p := &phase{want: want, got: transport.NewRoster(len(d.names))}
	_, err := d.gather(ctx, r, KindReady, p, deadline)
	for retry := 0; err == nil && p.got.Count() < d.quorum && retry < maxStuckAttempts; retry++ {
		_, err = d.gather(ctx, r, KindReady, p, d.timeout)
	}
	return p.got, err
}

// attempt declares roster for round r and collects its masked shares into
// the fold. On attemptRetry it returns the shrunken roster to re-run with:
// without the members that went silent between ready and share, or without
// one that aborted or became unreachable. attemptReready means the deadline
// passed with nothing collected under per-round masks, where a single dead
// member wedges everyone else's mask exchange and blaming the whole roster
// would collapse the round.
func (d *reducer) attempt(ctx context.Context, r, attempt int32, roster transport.Roster) (transport.Roster, attemptOutcome, error) {
	hdr := d.header(r)
	hdr.Roster, hdr.Attempt = roster, attempt
	d.emit("roster.declared", r, attempt, "", "", 0, float64(roster.Count()))
	for i, name := range d.names {
		if !roster.Has(i) {
			continue
		}
		if err := d.ep.Send(ctx, name, KindRoster, hdr, nil); err != nil {
			if ctx.Err() != nil {
				return nil, attemptRetry, fmt.Errorf("mapreduce: roster broadcast: %w", err)
			}
			d.dead[i] = true
			next := roster.Clone()
			next.Remove(i)
			return next, attemptRetry, nil
		}
	}
	if err := d.fold.reset(roster.Count()); err != nil {
		return nil, attemptRetry, err
	}
	p := &phase{attempt: attempt, roster: roster, want: roster.Clone(), got: transport.NewRoster(len(d.names))}
	for rearms := 0; ; {
		timedOut, err := d.gather(ctx, r, securesum.KindShare, p, d.timeout)
		switch {
		case err != nil:
			return nil, attemptRetry, err
		case p.void:
			return p.want, attemptRetry, nil
		case !timedOut:
			return roster, attemptDone, nil
		case p.got.Count() == 0 && d.maskMode == MaskPerRound:
			return roster, attemptReready, nil
		case p.got.Count() < d.quorum && rearms < maxStuckAttempts:
			// Never demote below quorum on a single deadline: the missing
			// shares are usually in flight rather than lost, and they stay
			// foldable under this attempt's stamp — so re-arm the window
			// and keep collecting before blaming anyone. Demoting the
			// whole cohort for one tight window would abort a healthy job.
			rearms++
			d.emit("window.rearm", r, attempt, "", "", 0, float64(rearms))
		default:
			// Demote whoever went silent between ready and share; the
			// survivors re-derive over the smaller roster.
			return p.got, attemptRetry, nil
		}
	}
}

// fold is one round's aggregate under the job's aggregation: the masked
// ring collector, the Paillier ciphertext product, or the plain float64 sum.
// Its buffers are reused every round, so the reduce hot loop does not
// allocate under masked aggregation; reuse is safe under the driver's
// lockstep — every consumer of round r's aggregate is done with it before
// round r+1 overwrites it.
type fold struct {
	agg   Aggregation
	dim   int
	codec fixedpoint.Codec
	key   *paillier.PrivateKey
	pack  *paillier.Packing

	col      *securesum.Collector
	shareBuf []uint64
	plain    [][]float64 // plain shares by mapper id, summed in id order
	acc      []*big.Int
	sum      []float64
}

// reset starts a fold of n shares.
func (f *fold) reset(n int) error {
	switch f.agg {
	case AggregationMasked:
		return f.col.ResetFor(n)
	case AggregationPlain:
		clear(f.plain)
	default:
		f.acc = nil
	}
	return nil
}

// add folds mapper id's share payload.
func (f *fold) add(id int, payload []byte) error {
	switch f.agg {
	case AggregationMasked:
		share, err := securesum.DecodeSharesInto(f.shareBuf, payload)
		if err != nil {
			return err
		}
		f.shareBuf = share
		return f.col.Add(share)
	case AggregationPlain:
		v, err := decodeVector(payload)
		if err != nil {
			return err
		}
		if len(v) != f.dim {
			return fmt.Errorf("%w: share of %d values, want %d", ErrBadJob, len(v), f.dim)
		}
		f.plain[id] = v
		return nil
	}
	cs, err := paillier.UnmarshalCiphertexts(payload)
	if err != nil {
		return err
	}
	if want := f.pack.Ciphertexts(f.dim); len(cs) != want {
		return fmt.Errorf("%w: cipher share of %d ciphertexts, want %d (%d values packed %d-wide)",
			ErrBadJob, len(cs), want, f.dim, f.pack.Slots)
	}
	if f.acc == nil {
		f.acc = cs
		return nil
	}
	// Element-wise homomorphic adds are independent modular multiplications;
	// fold them on the worker pool. Slot sums stay inside their guard bits
	// because the layout budgeted for every mapper's summand.
	parallel.For(len(f.acc), 16, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			f.acc[j] = f.key.Add(f.acc[j], cs[j])
		}
	})
	return nil
}

// result returns the folded sum. Plain shares are added in mapper-id order,
// not arrival order: float64 addition does not associate, so only a fixed
// order makes repeated runs — and the in-process local mode — bit-identical.
func (f *fold) result() ([]float64, error) {
	switch f.agg {
	case AggregationMasked:
		sum, err := f.col.SumInto(f.sum)
		f.sum = sum
		return sum, err
	case AggregationPlain:
		if f.sum == nil {
			f.sum = make([]float64, f.dim)
		}
		clear(f.sum)
		for _, v := range f.plain {
			for j, x := range v {
				f.sum[j] += x
			}
		}
		return f.sum, nil
	}
	// Key-authority step: decrypt only the aggregate. Per-ciphertext
	// decryptions (one modular exponentiation each) are independent and run
	// on the worker pool; unpacking then reduces each slot mod 2⁶⁴, the
	// fixedpoint ring's wrapping sum.
	ms := make([]*big.Int, len(f.acc))
	var mu sync.Mutex
	var decErr error
	parallel.For(len(f.acc), 1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			mval, err := f.key.Decrypt(f.acc[j])
			if err != nil {
				mu.Lock()
				if decErr == nil {
					decErr = err
				}
				mu.Unlock()
				return
			}
			ms[j] = mval
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("mapreduce paillier decrypt: %w", decErr)
	}
	ringSum, err := f.pack.UnpackVec(ms, f.dim, nil)
	if err != nil {
		return nil, fmt.Errorf("mapreduce paillier unpack: %w", err)
	}
	return f.codec.DecodeVec(ringSum, nil)
}
