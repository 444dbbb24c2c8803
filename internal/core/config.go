// Package core implements DSA (Direct Storage Access), the paper's
// client-side block-level I/O module layered between the application and
// VI, in its three flavors:
//
//   - kDSA: a kernel-level driver under the standard storage API — every
//     I/O enters the kernel, crosses the I/O manager and its global lock
//     pairs, and completes via interrupts with kDSA's novel interrupt
//     batching (disable interrupts above an outstanding-I/O threshold and
//     reap completions synchronously while issuing new I/Os);
//   - wDSA: user-level and Win32-compatible — user-level submission, but
//     completion requires kernel events, context switches, and faithful
//     kernel32.dll semantics, making it the most expensive path;
//   - cDSA: user-level with a new I/O API — minimal locking, AWE-pinned
//     buffers, and application-controlled completion: the server sets a
//     completion flag in client memory via RDMA, the application polls it
//     for an interval and only then falls back to interrupts.
//
// All three share DSA's common machinery: credit flow control
// (slotCredits), batched deregistration (internal/regtable via
// internal/vi), retransmission (tracker), and multiple VI connections to
// spread per-connection lock contention.
package core

import (
	"time"
)

// Impl selects a DSA implementation.
type Impl int

// The three client implementations plus the local-disk baseline marker.
const (
	KDSA Impl = iota
	WDSA
	CDSA
)

// String returns the paper's name for the implementation.
func (i Impl) String() string {
	switch i {
	case KDSA:
		return "kDSA"
	case WDSA:
		return "wDSA"
	case CDSA:
		return "cDSA"
	}
	return "DSA(?)"
}

// Opts toggles the Section 3 optimizations, in the order Figures 9 and 12
// stack them: batched deregistration, interrupt batching, reduced lock
// synchronization.
type Opts struct {
	BatchedDereg      bool
	BatchedInterrupts bool
	ReducedLocks      bool
}

// AllOpts enables every optimization (the configuration of Figures 10-14).
func AllOpts() Opts { return Opts{BatchedDereg: true, BatchedInterrupts: true, ReducedLocks: true} }

// NoOpts disables every optimization (the "Unoptimized" bars).
func NoOpts() Opts { return Opts{} }

// Config parameterizes a DSA client.
type Config struct {
	Impl Impl
	Opts Opts

	// Credits is the flow-control window per connection: the number of
	// server buffer slots granted at connect time.
	Credits int

	// ServerStripe is the unit in which the client volume is striped
	// across attached V3 servers. Requests must not straddle it.
	ServerStripe int64

	// kDSA interrupt batching thresholds: interrupts are disabled when a
	// connection's outstanding I/Os exceed IntrHigh and re-enabled when
	// they fall to IntrLow.
	IntrHigh, IntrLow int

	// cDSA polling: how long the application polls a completion flag
	// before arming an interrupt, the effective spacing of flag checks,
	// and the CPU cost of one check.
	PollInterval  time.Duration
	PollCheckGap  time.Duration
	PollCheckCost time.Duration

	// DSA-layer CPU costs per I/O.
	SubmitCost    time.Duration
	CompleteCost  time.Duration
	EmulationCost time.Duration // wDSA's kernel32.dll semantics tax, per side

	// DSA-layer lock pairs crossed per I/O in each direction, with and
	// without the Section 3.3 reduction.
	SendPairsOpt, SendPairsUnopt int
	RecvPairsOpt, RecvPairsUnopt int
	DSALockHold                  time.Duration // fine-grain (optimized) critical section
	DSALockHoldUnopt             time.Duration // coarse-grain (unoptimized) critical section

	// Lock topology: kDSA and wDSA cross locks shared across the whole
	// client (kernel-global); cDSA's locks are private to each connection.
	GlobalLocks  int
	PerConnLocks int

	// Housekeeping timers.
	FlushInterval    time.Duration // dereg region flush
	WatchdogInterval time.Duration // interrupt-batching completion backstop

	// Retransmission (Section 2.2: VI implementations do not provide
	// strong reliability guarantees; DSA retries lost requests).
	RetxTimeout  time.Duration
	RetxInterval time.Duration
	RetxRetries  int
}

// DefaultConfig returns the calibrated configuration for impl with all
// optimizations on.
func DefaultConfig(impl Impl) Config {
	cfg := Config{
		Impl:             impl,
		Opts:             AllOpts(),
		Credits:          512,
		ServerStripe:     1 << 20,
		IntrHigh:         8,
		IntrLow:          2,
		PollInterval:     100 * time.Microsecond,
		PollCheckGap:     2 * time.Microsecond,
		PollCheckCost:    50 * time.Nanosecond,
		DSALockHold:      400 * time.Nanosecond,
		DSALockHoldUnopt: 2500 * time.Nanosecond,
		GlobalLocks:      2,
		PerConnLocks:     2,
		FlushInterval:    2 * time.Millisecond,
		WatchdogInterval: 300 * time.Microsecond,
		RetxTimeout:      400 * time.Millisecond,
		RetxInterval:     25 * time.Millisecond,
		RetxRetries:      10,
	}
	switch impl {
	case KDSA:
		cfg.SubmitCost = 14 * time.Microsecond
		cfg.CompleteCost = 12 * time.Microsecond
		cfg.SendPairsOpt, cfg.SendPairsUnopt = 1, 4
		cfg.RecvPairsOpt, cfg.RecvPairsUnopt = 1, 4
	case WDSA:
		cfg.SubmitCost = 20 * time.Microsecond
		cfg.CompleteCost = 18 * time.Microsecond
		cfg.EmulationCost = 38 * time.Microsecond
		cfg.SendPairsOpt, cfg.SendPairsUnopt = 2, 2 // wDSA admits few optimizations
		cfg.RecvPairsOpt, cfg.RecvPairsUnopt = 2, 2
	case CDSA:
		cfg.SubmitCost = 5 * time.Microsecond
		cfg.CompleteCost = 3 * time.Microsecond
		cfg.SendPairsOpt, cfg.SendPairsUnopt = 1, 3
		cfg.RecvPairsOpt, cfg.RecvPairsUnopt = 1, 3
	}
	return cfg
}

// sendPairs returns the effective send-path DSA lock pairs.
func (c *Config) sendPairs() int {
	if c.Opts.ReducedLocks {
		return c.SendPairsOpt
	}
	return c.SendPairsUnopt
}

// recvPairs returns the effective receive-path DSA lock pairs.
func (c *Config) recvPairs() int {
	if c.Opts.ReducedLocks {
		return c.RecvPairsOpt
	}
	return c.RecvPairsUnopt
}

// dsaHold returns the critical-section length under DSA locks: short
// fine-grain sections when the Section 3.3 optimization is on, coarse
// sections otherwise.
func (c *Config) dsaHold() time.Duration {
	if c.Opts.ReducedLocks {
		return c.DSALockHold
	}
	return c.DSALockHoldUnopt
}
