// Package mapreduce is the execution substrate the paper assumes: the
// iterative MapReduce extension of Twister (Ekanayake et al., reference [12]
// of the paper), which the consensus trainers require because ADMM repeats
// Map → Reduce → feedback until convergence.
//
// One engine runs every job (RunDistributed). It keeps long-lived Mappers
// holding their private partitions resident (data locality), broadcasts the
// consensus state each round, aggregates Mapper contributions through a
// pluggable — by default privacy-preserving — aggregation protocol, and feeds
// the combined result back. The same round state machine serves fixed
// membership (strict), deadline-driven rosters (elastic) and bounded-
// staleness rounds (async); an in-process job is that engine over a
// transport.NewInProc network.
package mapreduce

import (
	"errors"
	"fmt"
)

// IterativeMapper is a long-lived Map() task of the Twister-style engine. It
// holds its private data partition for the whole job (data locality) and per
// iteration turns the broadcast consensus state into a local contribution
// vector. Only the contribution ever leaves the node, and in the default
// configuration it leaves masked.
type IterativeMapper interface {
	// Contribution computes the Mapper's local update for this iteration.
	// The returned vector must always have the same length for a given job.
	Contribution(iter int, state []float64) ([]float64, error)
}

// IterativeReducer is the Reduce() side: it receives only the aggregated sum
// of all Mapper contributions and produces the next broadcast state.
type IterativeReducer interface {
	// Combine folds the aggregate into the next state. done=true ends the
	// job with next as the final state. The runtime may reuse sum's backing
	// array after Combine returns; implementations that keep the aggregate
	// must copy it.
	Combine(iter int, sum []float64) (next []float64, done bool, err error)
}

// RosterReducer is an IterativeReducer that scales its combine step to the
// number of contributions actually folded. The elastic driver calls
// SetRoundParticipants with the final roster size before every Combine, so
// M-dependent reductions (a consensus mean, a proximal weight) divide by the
// live cohort instead of the full one. Reducers whose aggregates are
// absolute sums (counts, moments) simply don't implement it.
type RosterReducer interface {
	IterativeReducer
	// SetRoundParticipants announces how many mappers' contributions the
	// next Combine's sum contains.
	SetRoundParticipants(n int)
}

// WeightedReducer is a RosterReducer that additionally scales its combine
// step to the total staleness weight of the shares actually folded. Under
// bounded-staleness rounds (DriverOptions.Staleness) a mapper that is s
// rounds behind contributes its stale share scaled by κ^s, so the round's
// sum is Σ κ^{s_i}·c_i and the consensus mean must divide by W = Σ κ^{s_i}
// instead of the head count. The driver calls SetRoundWeight with W (derived
// from the public staleness stamps on the ready declarations — never from
// share contents) before every Combine; synchronous rounds pass W = n.
type WeightedReducer interface {
	RosterReducer
	// SetRoundWeight announces the total staleness weight of the next
	// Combine's sum.
	SetRoundWeight(total float64)
}

// ErrBadJob indicates a malformed job description.
var ErrBadJob = errors.New("mapreduce: bad job")

// ErrAborted reports that a Mapper failed fatally and the job unwound.
var ErrAborted = errors.New("mapreduce: job aborted")

// ErrQuorum reports that the elastic driver's roster fell below MinQuorum
// and the job stopped rather than train on too few parties.
var ErrQuorum = errors.New("mapreduce: roster below quorum")

// IterativeJob describes one consensus training job.
type IterativeJob struct {
	Mappers []IterativeMapper
	Reducer IterativeReducer
	// InitialState is the iteration-0 broadcast.
	InitialState []float64
	// ContributionDim is the length of every Mapper contribution.
	ContributionDim int
	// MaxIterations caps the loop; reaching it without Combine reporting
	// done is not an error (the trainers treat it as "ran the budget").
	MaxIterations int
}

func (j *IterativeJob) validate() error {
	switch {
	case len(j.Mappers) == 0:
		return fmt.Errorf("%w: no mappers", ErrBadJob)
	case j.Reducer == nil:
		return fmt.Errorf("%w: nil reducer", ErrBadJob)
	case j.ContributionDim <= 0:
		return fmt.Errorf("%w: contribution dim %d", ErrBadJob, j.ContributionDim)
	case j.MaxIterations <= 0:
		return fmt.Errorf("%w: max iterations %d", ErrBadJob, j.MaxIterations)
	}
	for i, m := range j.Mappers {
		if m == nil {
			return fmt.Errorf("%w: mapper %d is nil", ErrBadJob, i)
		}
	}
	return nil
}

// IterativeResult reports a finished job.
type IterativeResult struct {
	// FinalState is the last consensus state.
	FinalState []float64
	// Iterations is the number of completed rounds.
	Iterations int
	// Converged reports whether the Reducer signalled done before the cap.
	Converged bool
}
