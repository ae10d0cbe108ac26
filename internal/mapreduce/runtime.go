package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ppml-go/ppml/internal/dfs"
	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/paillier"
	"github.com/ppml-go/ppml/internal/parallel"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// Aggregation selects how Mapper contributions reach the Reducer.
type Aggregation int

const (
	// AggregationMasked runs the Section V pairwise-mask secure summation
	// protocol; the Reducer sees only the sum. This is the default.
	AggregationMasked Aggregation = iota + 1
	// AggregationPlain sends raw contributions; no privacy. Included for the
	// overhead ablation and for debugging.
	AggregationPlain
	// AggregationPaillier encrypts every contribution element under an
	// additively homomorphic public key; the Reducer multiplies ciphertexts
	// and only the aggregate is ever decrypted (by the key authority, which
	// the driver simulates). Orders of magnitude more expensive than
	// AggregationMasked — the trade the paper's Section V argues against —
	// and provided to measure exactly that at the system level.
	AggregationPaillier
)

// MaskMode selects the masked-aggregation variant, re-exported from
// securesum so driver callers configure it without importing the protocol
// package. The zero value (MaskSeeded) exchanges one pairwise seed per
// session and derives every round's masks locally; MaskPerRound is the
// paper's literal protocol with fresh masks every round.
type MaskMode = securesum.MaskMode

// The two masking variants.
const (
	MaskSeeded   = securesum.MaskSeeded
	MaskPerRound = securesum.MaskPerRound
)

// DriverOptions configures RunDistributed.
type DriverOptions struct {
	// Network defaults to a fresh in-process network.
	Network transport.Network
	// Aggregation defaults to AggregationMasked.
	Aggregation Aggregation
	// MaskMode selects how AggregationMasked produces its pairwise masks:
	// MaskSeeded (default) or MaskPerRound. Ignored by the other
	// aggregation modes.
	MaskMode MaskMode
	// Codec for masked aggregation; defaults to fixedpoint.Default().
	Codec fixedpoint.Codec
	// MapRetries re-invokes a failing Contribution this many times per
	// iteration before the Mapper aborts the job.
	MapRetries int
	// RoundTimeout bounds how long the Reducer waits for one round's
	// contributions. Zero (the default) waits indefinitely; a positive value
	// fails the job with a round-stamped error when a straggler or lost
	// message stalls a round past the bound.
	RoundTimeout time.Duration
	// StragglerTimeout enables the elastic (demote-and-continue) driver: a
	// mapper that has not answered within this bound is demoted for the
	// round instead of stalling or failing the job, and rejoins the next
	// round it answers in time. Zero (the default) keeps the strict
	// fixed-membership protocol; when set, RoundTimeout is ignored.
	StragglerTimeout time.Duration
	// MinQuorum is the smallest roster the elastic driver will fold. Below
	// it the job fails rather than silently training on too few parties. 0
	// defaults to 2 under masked aggregation (a roster of one would hand the
	// Reducer an effectively unmasked share) and 1 otherwise.
	MinQuorum int
	// Staleness enables bounded-staleness (asynchronous) rounds on top of
	// the elastic driver: a mapper whose fresh contribution is not ready
	// when the round's broadcast arrives answers immediately with its newest
	// completed contribution, as long as that one is at most Staleness
	// rounds old; compute overlaps the protocol on a background worker per
	// mapper. Stale shares are scaled by StalenessDecay^s mapper-side
	// (before masking — the masks are content-agnostic, so roster
	// cancellation is unaffected) and the reducer renormalizes by the total
	// weight via WeightedReducer. Zero (the default) keeps every round
	// synchronous. Requires StragglerTimeout and AggregationMasked.
	Staleness int
	// StalenessDecay is the per-round geometric discount κ ∈ (0, 1] applied
	// to stale contributions. 0 defaults to 0.5. Only meaningful with
	// Staleness.
	StalenessDecay float64
	// WriteOffAfter permanently writes off a mapper after this many
	// consecutive rounds of silence (demoted every one of them), so the
	// Reducer stops burning a StragglerTimeout window on a peer that is
	// plainly gone. Zero (the default) never writes off: every demoted
	// mapper keeps its right to rejoin, which vertically partitioned
	// schemes — where each mapper owns irreplaceable feature columns —
	// depend on. Only meaningful with StragglerTimeout.
	WriteOffAfter int
	// PaillierKey supplies the key pair for AggregationPaillier: the public
	// half goes to every Mapper, the private half stays with the simulated
	// key authority that decrypts only aggregates.
	PaillierKey *paillier.PrivateKey
	// PaillierPackWidth caps how many fixed-point values are slot-packed
	// into one Paillier plaintext. 0 (the default) packs as many as the
	// modulus and the mapper fan-in allow — ⌈dim/k⌉ ciphertexts per
	// contribution instead of dim; 1 reproduces the unpacked one-ciphertext-
	// per-element layout for ablations. Ignored by the other aggregation
	// modes.
	PaillierPackWidth int
	// Checkpoint enables Twister-style crash recovery: the consensus state
	// is written to the DFS every CheckpointEvery iterations, and a job that
	// finds a checkpoint at start warm-restarts from it (consensus state and
	// iteration counter resume; Mapper-local dual state restarts cold, which
	// ADMM tolerates — it converges from any starting point).
	Checkpoint *CheckpointPlan
	// Locality optionally describes where each Mapper's input lives in a
	// DFS, for data-movement accounting.
	Locality *LocalityPlan
	// Telemetry optionally attaches a metrics registry: per-round spans and
	// durations, retry/timeout counters, the mapper fan-out gauge, the
	// securesum per-kind traffic counters, and — when the Network supports
	// it — the transport counters. Nil records nothing at zero cost. When
	// nil, a registry already carried by the context (telemetry.NewContext)
	// is used instead.
	Telemetry *telemetry.Registry
}

// CheckpointPlan configures consensus-state checkpointing.
type CheckpointPlan struct {
	// Cluster stores the checkpoints.
	Cluster *dfs.Cluster
	// Path is the DFS file holding the latest checkpoint.
	Path string
	// Every writes a checkpoint after each Every-th completed iteration
	// (default 1).
	Every int
}

// LocalityPlan maps Mappers to their DFS input and their execution node.
type LocalityPlan struct {
	Cluster *dfs.Cluster
	// InputPath[i] is the DFS path of mapper i's partition.
	InputPath []string
	// NodeOf[i] is the cluster node mapper i is scheduled on.
	NodeOf []string
}

// DriverResult reports a distributed run.
type DriverResult struct {
	IterativeResult
	// Net are the transport counters accumulated by the job.
	Net transport.Stats
	// RemoteInputBytes is the map-input volume that had to cross the
	// network because a task was not co-located with its data. Zero under
	// locality-aware placement.
	RemoteInputBytes int64
	// Elapsed is the wall-clock job duration.
	Elapsed time.Duration
	// Demotions and Rejoins count elastic roster transitions: a mapper
	// leaving the roster between consecutive rounds, and one returning.
	// Always zero under the strict driver.
	Demotions int
	Rejoins   int
}

const reducerName = "reducer"

// Telemetry metric families exported by the runtime. All are scalars of the
// driver's own control flow — never contribution or state values.
const (
	metricRounds       = "ppml_rounds_total"
	metricRoundSeconds = "ppml_round_seconds"
	metricRetries      = "ppml_map_retries_total"
	metricTimeouts     = "ppml_round_timeouts_total"
	metricFanout       = "ppml_mapper_fanout"
	// metricCiphertexts counts Paillier ciphertexts produced by mapper
	// encryptions; with packing it grows ⌈dim/k⌉ per contribution instead of
	// dim, which is the win the pack-ratio gauge makes visible.
	metricCiphertexts = "ppml_paillier_ciphertexts_total"
	// metricPackRatio is elements-per-ciphertext under the active packing
	// (dim / ⌈dim/k⌉); 1 when unpacked. A scalar of the layout, never of
	// any payload value.
	metricPackRatio = "ppml_paillier_pack_ratio"
	// Elastic-roster metrics: how many mappers each round actually folded,
	// and the cumulative roster churn. All are counts of the driver's
	// control flow, never contribution values.
	metricParticipants = "ppml_round_participants"
	metricDemotions    = "ppml_mapper_demotions_total"
	metricRejoins      = "ppml_mapper_rejoins_total"
	// metricStaleness is the per-ready-declaration staleness distribution
	// under bounded-staleness rounds: how many rounds old each folded
	// contribution was. A count of the driver's control flow — the stamp is
	// public coordination metadata, never share content.
	metricStaleness = "ppml_round_staleness"
)

// stalenessBuckets covers the practical bounded-staleness range (S is
// typically 1–4; anything above 16 means the decay has zeroed the share).
var stalenessBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16}

// sessionCounter allocates process-unique job session ids. Session 0 is
// reserved for traffic outside any job, so the first allocation is 1.
var sessionCounter atomic.Uint64

// RunDistributed executes the iterative job over a simulated cluster: one
// transport endpoint per Mapper plus the Reducer, per-iteration broadcast and
// (by default) secure aggregation, exactly the system structure of Fig. 1.
func RunDistributed(ctx context.Context, job IterativeJob, opts DriverOptions) (*DriverResult, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.FromContext(ctx)
	} else {
		ctx = telemetry.NewContext(ctx, reg)
	}
	net := opts.Network
	if net == nil {
		net = transport.NewInProc()
		defer net.Close()
	}
	if reg != nil {
		// Attach the transport counters when the network supports them. A
		// caller-provided network keeps the attachment after the job — its
		// counters are cumulative across jobs, like Stats.
		if tn, ok := net.(interface {
			SetTelemetry(*telemetry.Registry)
		}); ok {
			tn.SetTelemetry(reg)
		}
	}
	agg := opts.Aggregation
	if agg == 0 {
		agg = AggregationMasked
	}
	if agg == AggregationPaillier && opts.PaillierKey == nil {
		return nil, fmt.Errorf("%w: AggregationPaillier needs DriverOptions.PaillierKey", ErrBadJob)
	}
	codec := opts.Codec
	if codec.FracBits() == 0 {
		codec = fixedpoint.Default()
	}
	m := len(job.Mappers)
	fold := fold{agg: agg, dim: job.ContributionDim, codec: codec, key: opts.PaillierKey}
	shareKind := securesum.KindShare
	var pack *paillier.Packing
	switch agg {
	case AggregationMasked:
		col, err := securesum.NewCollector(m, job.ContributionDim, codec)
		if err != nil {
			return nil, err
		}
		fold.col = col
	case AggregationPlain:
		shareKind = KindPlainShare
		fold.plain = make([][]float64, m)
	case AggregationPaillier:
		// Slot packing for the HE path: the layout is a pure function of the
		// public key, the mapper fan-in (the guard-bit budget: the reducer
		// adds at most len(Mappers) ciphertexts) and the width knob, so the
		// mappers and the reducer derive identical layouts without any
		// negotiation.
		shareKind = KindCipherShare
		var err error
		if pack, err = paillier.NewPacking(&opts.PaillierKey.PublicKey, m, opts.PaillierPackWidth); err != nil {
			return nil, fmt.Errorf("mapreduce: %w", err)
		}
		fold.pack = pack
	}

	start := time.Now()
	res := &DriverResult{}
	if opts.Locality != nil {
		remote, err := opts.Locality.remoteBytes(m)
		if err != nil {
			return nil, err
		}
		res.RemoteInputBytes = remote
	}

	elastic := opts.StragglerTimeout > 0
	decay := opts.StalenessDecay
	if opts.Staleness > 0 {
		// Bounded staleness rides on the elastic round structure (the ready
		// window IS the staleness window) and on masked aggregation (the
		// weight travels as a public stamp on the ready declaration; the
		// loose aggregations have no declaration to stamp).
		if !elastic {
			return nil, fmt.Errorf("%w: Staleness needs StragglerTimeout", ErrBadJob)
		}
		if agg != AggregationMasked {
			return nil, fmt.Errorf("%w: Staleness needs AggregationMasked", ErrBadJob)
		}
		if opts.Staleness > 255 {
			return nil, fmt.Errorf("%w: Staleness %d exceeds the wire stamp's range", ErrBadJob, opts.Staleness)
		}
		if decay == 0 {
			decay = 0.5
		}
		if decay < 0 || decay > 1 {
			return nil, fmt.Errorf("%w: StalenessDecay %g outside (0,1]", ErrBadJob, decay)
		}
	}
	// Strict rounds fold the full cohort; RoundTimeout bounds the wait.
	quorum, timeout := m, opts.RoundTimeout
	if elastic {
		quorum, timeout = opts.MinQuorum, opts.StragglerTimeout
		if quorum == 0 {
			// A masked roster of one would hand the Reducer a share whose
			// masks all cancelled locally — effectively plaintext — so the
			// privacy floor is two participants whenever masking is on.
			quorum = 1
			if agg == AggregationMasked {
				quorum = min(2, m)
			}
		}
		if quorum < 1 || quorum > m {
			return nil, fmt.Errorf("%w: MinQuorum %d with %d mappers", ErrBadJob, opts.MinQuorum, m)
		}
	}

	state := append([]float64(nil), job.InitialState...)
	startIter := 0
	if opts.Checkpoint != nil {
		if opts.Checkpoint.Cluster == nil || opts.Checkpoint.Path == "" {
			return nil, fmt.Errorf("%w: checkpoint plan incomplete", ErrBadJob)
		}
		if raw, err := opts.Checkpoint.Cluster.Read(opts.Checkpoint.Path); err == nil {
			iter, saved, err := decodeStatePayload(raw)
			if err != nil {
				return nil, fmt.Errorf("mapreduce checkpoint: %w", err)
			}
			state = saved
			startIter = iter
			res.Iterations = iter
		}
	}

	session := sessionCounter.Add(1)
	// Trace identity for the whole session: the reducer mints it here and
	// stamps it into every envelope; mappers echo it back, so every node's
	// journal keys its events to the same cross-node timeline.
	trace := telemetry.NewTraceID()
	parentSpan := telemetry.NewSpanID()
	journal := reg.Journal()
	// Prepared metric handles; with no registry each is nil and every
	// operation below is a free no-op.
	reg.Gauge(metricFanout).Set(float64(m))
	retries := reg.Counter(metricRetries)
	var sstel *securesum.Telemetry
	if agg == AggregationMasked {
		sstel = securesum.NewTelemetry(reg, opts.MaskMode)
	}
	var cipherCtr *telemetry.Counter
	if agg == AggregationPaillier {
		cipherCtr = reg.Counter(metricCiphertexts)
		reg.Gauge(metricPackRatio).Set(float64(job.ContributionDim) / float64(pack.Ciphertexts(job.ContributionDim)))
	}
	ctx, jobSpan := telemetry.StartSpan(ctx, "mapreduce.job")
	defer jobSpan.End()
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("mapper-%d", i)
	}
	redEP, err := net.Endpoint(reducerName)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: reducer endpoint: %w", err)
	}
	// The job's endpoints are released on every exit path: a caller-provided
	// network must not accumulate listeners and reader goroutines across
	// jobs, and closing the endpoints unblocks any mapper still parked in
	// Recv when the driver unwinds early.
	defer redEP.Close()
	mapEPs := make([]transport.Endpoint, m)
	for i := range mapEPs {
		ep, err := net.Endpoint(names[i])
		if err != nil {
			return nil, fmt.Errorf("mapreduce: mapper endpoint: %w", err)
		}
		mapEPs[i] = ep
		defer ep.Close()
	}

	mapperErrs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mapperErrs[i] = runMapperNode(ctx, mapperNodeConfig{
				solver: solver{
					mapper: job.Mappers[i], retries: opts.MapRetries, retryCtr: retries,
					journal: journal, node: names[i], trace: trace,
				},
				id: i, session: session, parentSpan: parentSpan, names: names, ep: mapEPs[i],
				agg: agg, maskMode: opts.MaskMode, codec: codec, dim: job.ContributionDim,
				// Masked aggregation needs the roster handshake on the
				// mapper side; the plain and Paillier paths are roster-
				// oblivious (their shares do not depend on who else answers).
				elastic:   elastic && agg == AggregationMasked,
				straggler: opts.StragglerTimeout, staleness: opts.Staleness, decay: decay,
				pack: pack, cipherCtr: cipherCtr, sstel: sstel,
			})
		}(i)
	}

	d := &reducer{
		session: session, trace: trace, parentSpan: parentSpan, journal: journal,
		names: names, ep: redEP,
		elastic: elastic, maskMode: opts.MaskMode, shareKind: shareKind, timeout: timeout,
		quorum: quorum, writeOffAfter: opts.WriteOffAfter, staleness: opts.Staleness, decay: decay,
		fold: fold, checkpoint: opts.Checkpoint,
		rounds:       reg.Counter(metricRounds),
		roundDur:     reg.Histogram(metricRoundSeconds, telemetry.DurationBuckets),
		timeouts:     reg.Counter(metricTimeouts),
		participants: reg.Gauge(metricParticipants),
		demotions:    reg.Counter(metricDemotions),
		rejoins:      reg.Counter(metricRejoins),
		res:          res,
	}
	if opts.Staleness > 0 {
		d.staleHist = reg.Histogram(metricStaleness, stalenessBuckets)
	}
	state, jobErr := d.run(ctx, job, state, startIter)

	// Tear down: final state rides on the stop message, stamped with the
	// round the job finished on so transcripts show where it stopped.
	stopHdr := d.header(int32(res.Iterations))
	stopPayload := encodeStatePayload(res.Iterations, state)
	for _, name := range names {
		//ppml:err-ok best-effort teardown: a mapper that already exited, was demoted or sits behind a dead link cannot receive its stop, and that must not mask the job result
		_ = redEP.Send(ctx, name, KindStop, stopHdr, stopPayload)
	}
	if elastic {
		// A killed mapper never sees its stop (the chaos transport eats it)
		// and may be parked in RecvMatch forever; closing the endpoints
		// unblocks every mapper goroutine with ErrClosed so the join below
		// terminates. Mapper errors are roster events under the elastic
		// contract — demotions, not job failures — so the reducer's outcome
		// stands alone.
		for _, ep := range mapEPs {
			//ppml:err-ok teardown close: the endpoint is being discarded and the job result is already decided
			_ = ep.Close()
		}
	}
	wg.Wait()
	if !elastic {
		jobErr = strictError(jobErr, mapperErrs)
	}
	if jobErr != nil {
		// Post-mortem flight-recorder dump (PPML_JOURNAL_DUMP-gated): the
		// journal's last window is exactly the evidence an aborted
		// distributed round leaves behind. Best-effort — the job error below
		// is the one worth reporting.
		_, _ = reg.AutoDumpJournal(trace.String())
		return nil, jobErr
	}
	res.FinalState = state
	res.Net = net.Stats()
	res.Elapsed = time.Since(start)
	return res, nil
}

// strictError picks a strict job's error. A mapper's own abort names the
// iteration its Contribution failed at, and when several mappers fail in the
// same round the lowest index is reported, so the error does not depend on
// which abort reached the Reducer first. Otherwise the Reducer's error
// stands, else the mapper errors, joined.
func strictError(jobErr error, mapperErrs []error) error {
	for _, err := range mapperErrs {
		if errors.Is(err, ErrAborted) {
			return err
		}
	}
	if jobErr != nil {
		return jobErr
	}
	return errors.Join(mapperErrs...)
}

func (p *LocalityPlan) remoteBytes(mappers int) (int64, error) {
	if p.Cluster == nil || len(p.InputPath) != mappers || len(p.NodeOf) != mappers {
		return 0, fmt.Errorf("%w: locality plan incomplete", ErrBadJob)
	}
	var remote int64
	for i := 0; i < mappers; i++ {
		primary, err := p.Cluster.PrimaryLocation(p.InputPath[i])
		if err != nil {
			return 0, fmt.Errorf("mapreduce locality: %w", err)
		}
		if primary != p.NodeOf[i] {
			sz, err := p.Cluster.FileSize(p.InputPath[i])
			if err != nil {
				return 0, fmt.Errorf("mapreduce locality: %w", err)
			}
			remote += int64(sz)
		}
	}
	return remote, nil
}

// encryptContribution fixed-point-encodes the vector, slot-packs it (k ring
// elements per plaintext — the SPINDLE-style layout in paillier.Packing) and
// encrypts every packed plaintext. Plaintext encryptions are independent
// (each draws its own randomness from crypto/rand, which is safe for
// concurrent use), so they run on the parallel worker pool — public-key
// encryption is by far the most expensive per-element operation in the
// system, which is exactly why ⌈d/k⌉ encryptions instead of d is the
// headline HE win. scratch is an optional reusable encode buffer; the
// (possibly grown) buffer is returned for the next call.
func encryptContribution(contrib []float64, codec fixedpoint.Codec, pack *paillier.Packing, scratch []uint64, ctr *telemetry.Counter) ([]byte, []uint64, error) {
	enc, err := codec.EncodeVec(contrib, scratch)
	if err != nil {
		return nil, scratch, fmt.Errorf("paillier share encode: %w", err)
	}
	ms := pack.PackVec(enc)
	cs := make([]*big.Int, len(ms))
	var mu sync.Mutex
	var encErr error
	parallel.For(len(ms), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c, err := pack.Encrypt(nil, ms[i])
			if err != nil {
				mu.Lock()
				if encErr == nil {
					encErr = err
				}
				mu.Unlock()
				return
			}
			cs[i] = c
		}
	})
	if encErr != nil {
		return nil, enc, fmt.Errorf("paillier share encrypt: %w", encErr)
	}
	ctr.Add(int64(len(cs)))
	return paillier.MarshalCiphertexts(cs), enc, nil
}
