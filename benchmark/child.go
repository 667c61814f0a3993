package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dbench/internal/core"
	"dbench/internal/trace"
)

// virtualResult is everything one core.Run reports on the virtual clock.
// The simulation is deterministic, so two runs of one spec must agree on
// every field — the struct is compared with ==.
type virtualResult struct {
	Committed   int
	Failures    int
	TpmC        float64
	RecoveryS   float64
	UserOutageS float64
	// RefusedInOutage counts the attempts turned away between the fault's
	// injection and the end of its recovery: the injected fault's own
	// effect, scored by served_share and tpmC, not an operation failure.
	RefusedInOutage int
	Lost            int
	Violations      int
	FailedOver      bool
	Checkpoints     int
	RedoWritten     int64
	LogStallS       float64
	LockWaits       int64
	LockTimeouts    int64
	CacheHitRate    float64
	ReplLagRecords  int64
	RTOEstimateS    float64
	BusyDataS       float64
	BusyRedoS       float64
	BusyArchS       float64
	DataDisks       int
}

// opFailures counts the attempts that failed although the database was
// meant to be serving.
func (v virtualResult) opFailures() int { return v.Failures - v.RefusedInOutage }

func virtualOf(r *core.Result) virtualResult {
	v := virtualResult{
		Committed:      r.Committed,
		Failures:       r.Failures,
		TpmC:           r.TpmC,
		RecoveryS:      r.RecoveryTime.Seconds(),
		UserOutageS:    r.UserOutage.Seconds(),
		Lost:           r.LostTransactions,
		Violations:     len(r.IntegrityViolations),
		FailedOver:     r.FailedOver,
		Checkpoints:    r.Checkpoints,
		RedoWritten:    r.RedoWritten,
		LogStallS:      r.LogStalls.Seconds(),
		LockWaits:      r.LockWaits,
		LockTimeouts:   r.LockTimeouts,
		CacheHitRate:   r.CacheHitRate,
		ReplLagRecords: r.ReplLagRecords,
		RTOEstimateS:   r.RTOEstimate.Seconds(),
	}
	if r.Availability != nil {
		v.RefusedInOutage = r.Availability.Global().Refused()
	}
	for name, busy := range r.DiskBusy {
		switch {
		case strings.HasPrefix(name, "data"):
			v.BusyDataS += busy.Seconds()
			v.DataDisks++
		case name == "redo":
			v.BusyRedoS = busy.Seconds()
		case name == "arch":
			v.BusyArchS = busy.Seconds()
		}
	}
	return v
}

// repReport is what one repetition — one child process — hands back.
type repReport struct {
	// SetupS is the wall time of each load-only run made before the
	// measured one, in order.
	SetupS []float64
	// WallS, Mallocs and AllocBytes cover the measured core.Run, set-up
	// included.
	WallS      float64
	Mallocs    uint64
	AllocBytes uint64
	Virtual    virtualResult
	// Layers holds the per-layer numbers of a traced repetition.
	Layers map[string]float64 `json:",omitempty"`
	// Notes are human-readable asides (sample counts and the like) for
	// the progress stream.
	Notes []string `json:",omitempty"`
}

// setupsPerRep is K, the load-only runs a repetition makes for setup_s
// before its measured run. One is enough: a run has five to ten repetitions,
// and setup_s reports the fastest of them all.
const setupsPerRep = 1

// runRep performs one repetition in this process: setupsPerRep load-only
// runs for setup_s, then exactly one measured core.Run.
func runRep(spec core.Spec, traced bool) (*repReport, error) {
	rep := &repReport{}
	lo := loadOnly(spec)
	for i := 0; i < setupsPerRep; i++ {
		t0 := time.Now()
		if _, err := core.Run(lo); err != nil {
			return nil, fmt.Errorf("load-only run: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}

	var sink *spanSink
	var cpu bytes.Buffer
	var heapBefore map[stackKey]int64
	if traced {
		sink = newSpanSink()
		spec.Tracer = trace.New(sink)
		spec.SampleInterval = time.Second
		heapBefore = heapProfile()
		// 500 Hz instead of pprof's 100: a repetition lasts only a few
		// seconds. pprof.StartCPUProfile then asks for 100 Hz again, which
		// the runtime refuses with a line on standard error, keeping ours.
		runtime.SetCPUProfileRate(500)
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := core.Run(spec)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	rep.WallS = wall.Seconds()
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.Virtual = virtualOf(res)
	if traced {
		rep.Layers = make(map[string]float64)
		if err := cpuShares(cpu.Bytes(), rep); err != nil {
			return nil, err
		}
		allocShares(heapBefore, heapProfile(), rep)
		virtualLayers(res, sink, rep)
	}
	return rep, nil
}
