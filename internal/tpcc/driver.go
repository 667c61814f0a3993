package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dbench/internal/metrics"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/trace"
	"dbench/internal/txn"
)

// CommitRecord is the driver's log of one successful transaction, the raw
// material of the benchmark measures (tpmC, recovery time from the
// end-user view, lost-transaction detection).
type CommitRecord struct {
	Type TxnType
	At   sim.Time
	SCN  redo.SCN
	// W is the home warehouse the terminal submitted against (set for
	// every commit); D/OID additionally identify the created order for
	// New-Order commits, so the harness can verify durability after
	// recovery.
	W, D, OID int
}

// FailureRecord is one failed transaction attempt as seen by a terminal.
type FailureRecord struct {
	Type TxnType
	At   sim.Time
	W    int
	Err  string
}

// AbortRecord is one intentional New-Order rollback (TPC-C §2.4.1.4): the
// database served the request, the "user" chose to abort it.
type AbortRecord struct {
	At sim.Time
	W  int
}

// LoadPhase is one step of a phased (shifting) offered load: for
// Duration, only ActiveFrac of the terminals submit work; the rest
// sleep. Phases run in sequence from Start; the last phase persists.
type LoadPhase struct {
	Duration   time.Duration
	ActiveFrac float64
}

// DriverConfig tunes the terminal emulator.
type DriverConfig struct {
	// Phases, when non-empty, shapes the offered load over time (the
	// pareto experiment's shifting-load scenario). Empty = every
	// terminal active for the whole run, the default.
	Phases []LoadPhase
}

// retryBackoff is how long a terminal waits after a failed attempt before
// submitting the next transaction (the end user retrying).
const retryBackoff = time.Second

// Driver emulates the TPC-C remote terminal emulator: one process per
// terminal submitting the spec's transaction mix against the application.
// The driver is "external" to the DBMS (paper Figure 2): it survives
// database crashes and keeps retrying, which is how it observes recovery
// time from the end-user point of view.
type Driver struct {
	app *App
	k   *sim.Kernel
	cfg DriverConfig

	running   bool
	terminals []*sim.Proc
	startAt   sim.Time

	commits  []CommitRecord
	failures []FailureRecord
	aborts   []AbortRecord

	// st holds the driver's counters, registered as tpcc.*.
	st struct{ offered, served, refused int64 }
}

// NewDriver creates a driver for the loaded application.
func NewDriver(app *App, cfg DriverConfig) *Driver {
	d := &Driver{app: app, k: app.In.Kernel(), cfg: cfg}
	app.In.Registry().Register([]trace.Counter{
		{Name: "tpcc.offered", V: &d.st.offered},
		{Name: "tpcc.served", V: &d.st.served},
		{Name: "tpcc.refused", V: &d.st.refused},
	}...)
	return d
}

// Start launches the terminal processes.
func (d *Driver) Start() {
	if d.running {
		return
	}
	d.running = true
	d.startAt = d.k.Now()
	cfg := d.app.Cfg
	idx, total := 0, cfg.Warehouses*cfg.TerminalsPerWarehouse
	for w := 1; w <= cfg.Warehouses; w++ {
		for t := 0; t < cfg.TerminalsPerWarehouse; t++ {
			w, idx := w, idx
			seed := int64(w*1000+t) ^ 0x5eed
			track := fmt.Sprintf("term w%d.%d", w, t)
			d.terminals = append(d.terminals, d.k.Go("terminal", func(p *sim.Proc) {
				d.terminalLoop(p, w, track, rand.New(rand.NewSource(seed)), idx, total)
			}))
			idx++
		}
	}
}

// phaseFrac returns the active-terminal fraction at time now, plus the
// time remaining until the next phase boundary (0 when in the final,
// persisting phase).
func (d *Driver) phaseFrac(now sim.Time) (frac float64, untilNext time.Duration) {
	if len(d.cfg.Phases) == 0 {
		return 1, 0
	}
	elapsed := now.Sub(d.startAt)
	for _, ph := range d.cfg.Phases {
		if elapsed < ph.Duration {
			return ph.ActiveFrac, ph.Duration - elapsed
		}
		elapsed -= ph.Duration
	}
	return d.cfg.Phases[len(d.cfg.Phases)-1].ActiveFrac, 0
}

// Stop signals all terminals to finish their current transaction and
// exit.
func (d *Driver) Stop() { d.running = false }

// Quiesce stops the terminals and waits (in virtual time) until every
// terminal process has exited and no transaction is in flight, so that
// consistency checks observe a stable database.
func (d *Driver) Quiesce(p *sim.Proc) {
	d.Stop()
	for {
		done := true
		for _, t := range d.terminals {
			if !t.Done() {
				done = false
				break
			}
		}
		if done && d.app.In.Txns().ActiveCount() == 0 {
			return
		}
		p.Sleep(500 * time.Millisecond)
	}
}

// Commits returns the commit log (callers must not modify).
func (d *Driver) Commits() []CommitRecord { return d.commits }

// Failures returns the failure log.
func (d *Driver) Failures() []FailureRecord { return d.failures }

// Availability tallies offered-vs-served per warehouse over [from, to).
// Commits and user aborts count as served (the terminal got its answer);
// failures count as offered-but-refused.
func (d *Driver) Availability(from, to sim.Time) *metrics.Availability {
	a := metrics.NewAvailability(from, to, d.app.Cfg.Warehouses)
	for _, c := range d.commits {
		a.Record(c.At, c.W, true)
	}
	for _, ab := range d.aborts {
		a.Record(ab.At, ab.W, true)
	}
	for _, f := range d.failures {
		a.Record(f.At, f.W, false)
	}
	return a
}

// newDeck deals the spec §5.2.3 card deck: the mix guaranteeing ≥43%
// Payment and ≥4% each of Order-Status, Delivery and Stock-Level.
func newDeck(r *rand.Rand) []TxnType {
	deck := make([]TxnType, 0, 23)
	for i := 0; i < 10; i++ {
		deck = append(deck, TxnNewOrder)
	}
	for i := 0; i < 10; i++ {
		deck = append(deck, TxnPayment)
	}
	deck = append(deck, TxnOrderStatus, TxnDelivery, TxnStockLevel)
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// txnSampleEvery is the per-terminal transaction-span sampling stride:
// every 32nd submitted transaction gets a txn-category trace span, enough
// to see the workload's shape without drowning the trace in events.
const txnSampleEvery = 32

// terminalLoop is one terminal's life: think, submit, record, repeat.
// idx/total position the terminal in the phased-load ordering: terminal
// idx is active in a phase iff idx < ActiveFrac*total (rounded up), so
// ramps add and remove the same terminals deterministically.
func (d *Driver) terminalLoop(p *sim.Proc, w int, track string, r *rand.Rand, idx, total int) {
	var deck []TxnType
	var submitted int
	for d.running {
		if frac, untilNext := d.phaseFrac(p.Now()); float64(idx+1) > frac*float64(total)+1e-9 {
			// Inactive this phase. Sleep toward the phase boundary in
			// bounded steps so Stop() is still honored promptly.
			nap := untilNext
			if nap <= 0 || nap > time.Second {
				nap = time.Second
			}
			p.Sleep(nap)
			continue
		}
		if len(deck) == 0 {
			deck = newDeck(r)
		}
		typ := deck[0]
		deck = deck[1:]

		var span trace.SpanID
		tr := d.app.In.Tracer()
		if submitted%txnSampleEvery == 0 {
			span = tr.Begin(p.Now(), trace.CatTxn, track, typ.String())
		}
		submitted++
		d.st.offered++
		res, err := d.exec(p, r, typ, w)
		now := p.Now()
		if span != 0 {
			status := "commit"
			switch {
			case errors.Is(err, ErrUserAbort):
				status = "user abort"
			case err != nil:
				status = "error"
			}
			tr.End(now, span, trace.S("status", status))
		}
		switch {
		case err == nil:
			rec := CommitRecord{Type: typ, At: now, W: w}
			rec.SCN = res.CommitSCN
			if typ == TxnNewOrder {
				rec.D, rec.OID = res.districtID, res.orderID
			}
			d.commits = append(d.commits, rec)
			d.st.served++
		case errors.Is(err, ErrUserAbort):
			// The database did its part: a user abort is served traffic.
			d.aborts = append(d.aborts, AbortRecord{At: now, W: w})
			d.st.served++
		default:
			d.failures = append(d.failures, FailureRecord{Type: typ, At: now, W: w, Err: err.Error()})
			d.st.refused++
			p.Sleep(retryBackoff)
		}
	}
}

func (d *Driver) exec(p *sim.Proc, r *rand.Rand, typ TxnType, w int) (Result, error) {
	switch typ {
	case TxnNewOrder:
		return d.app.NewOrder(p, r, w)
	case TxnPayment:
		return d.app.Payment(p, r, w)
	case TxnOrderStatus:
		return d.app.OrderStatus(p, r, w)
	case TxnDelivery:
		return d.app.Delivery(p, r, w)
	case TxnStockLevel:
		return d.app.StockLevel(p, r, w)
	default:
		return Result{}, errors.New("tpcc: unknown transaction type")
	}
}

// TpmC computes the New-Order throughput (transactions per minute) in the
// window [from, to).
func (d *Driver) TpmC(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	n := 0
	for _, c := range d.commits {
		if c.Type == TxnNewOrder && c.At >= from && c.At < to {
			n++
		}
	}
	return float64(n) / to.Sub(from).Minutes()
}

// ThroughputSeries buckets New-Order commits into fixed windows for the
// throughput-over-time plots.
func (d *Driver) ThroughputSeries(from, to sim.Time, width time.Duration) []int {
	if width <= 0 || to <= from {
		return nil
	}
	// ceil((to-from)/width) windows: an evenly dividing range used to get
	// an extra bucket that could never fill (commits at >= to are
	// excluded), leaving a spurious trailing zero on every series.
	out := make([]int, int((to.Sub(from)+width-1)/width))
	for _, c := range d.commits {
		if c.Type != TxnNewOrder || c.At < from || c.At >= to {
			continue
		}
		idx := int(c.At.Sub(from) / width)
		if idx >= 0 && idx < len(out) {
			out[idx]++
		}
	}
	return out
}

// FirstCommitAfter returns the time of the first successful commit at or
// after t — the end-user's "service is back" moment.
func (d *Driver) FirstCommitAfter(t sim.Time) (sim.Time, bool) {
	best := sim.Time(-1)
	for _, c := range d.commits {
		if c.At >= t && (best < 0 || c.At < best) {
			best = c.At
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// CountCommitted returns committed transactions of the given type (all
// types when typ is 0).
func (d *Driver) CountCommitted(typ TxnType) int {
	n := 0
	for _, c := range d.commits {
		if typ == 0 || c.Type == typ {
			n++
		}
	}
	return n
}

// Missing probes every acknowledged New-Order commit in ledger and counts
// the ones whose order row is absent — lost transactions from the
// end-user's view. The instance must be open and the workload quiesced. A
// commit whose SCN lies beyond a non-negative cut (a failover's promotion
// SCN) is counted as beyond without probing: the promoted stand-by never
// received it, so it is the failover's RPO rather than a recovery defect —
// and probing would lie, because the post-failover workload reuses the lost
// order ids (the promoted district counters rolled back with the lost redo)
// and plants unrelated orders at the same keys. cut < 0 probes everything.
func (a *App) Missing(p *sim.Proc, ledger []CommitRecord, cut redo.SCN) (missing, beyond int, err error) {
	for _, c := range ledger {
		if c.Type != TxnNewOrder || c.OID == 0 {
			continue
		}
		if cut >= 0 && c.SCN > cut {
			beyond++
			continue
		}
		ok, err := a.hasOrder(p, c.W, c.D, c.OID)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			missing++
		}
	}
	return missing, beyond, nil
}

// hasOrder reports whether the order row for an acknowledged New-Order
// commit exists. It reads through a regular transaction, so the instance
// must be open.
func (a *App) hasOrder(p *sim.Proc, w, d, oid int) (bool, error) {
	var rerr error
	if _, err := a.In.Atomically(p, func(t *txn.Txn) error {
		_, rerr = a.In.Read(p, t, TableOrder, OKey(w, d, oid))
		return nil
	}); err != nil {
		return false, err
	}
	return rerr == nil, nil
}
