package tpcc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// Config scales and tunes the workload.
type Config struct {
	// Warehouses is the scale factor W.
	Warehouses int
	// CustomersPerDistrict (spec: 3000; scaled down by default here).
	CustomersPerDistrict int
	// Items in the catalogue (spec: 100000; scaled down by default).
	Items int
	// TerminalsPerWarehouse drives concurrency (spec: 10). Terminals
	// submit back to back: there is no keying or think time.
	TerminalsPerWarehouse int
}

const (
	// Districts per warehouse (fixed by the spec).
	Districts = 10
	// Tablespace is where the TPC-C tables live: all of them at W = 1,
	// the shared ones (item, history) in the per-warehouse layout.
	Tablespace = "TPCC"
	// owner is the schema owner account.
	owner = "tpcc"
)

// DefaultConfig returns the scaled-down default used by the benchmark.
func DefaultConfig() Config {
	return Config{
		Warehouses:            2,
		CustomersPerDistrict:  300,
		Items:                 10000,
		TerminalsPerWarehouse: 10,
	}
}

// nuRandCLast, nuRandCID, nuRandOLID are the NURand constants (spec
// §2.1.6); fixed per benchmark run.
const (
	nuRandCLast = 123
	nuRandCID   = 259
	nuRandOLID  = 1009
)

// nuRand is the spec's non-uniform random function NURand(A, x, y).
func nuRand(r *rand.Rand, a, c, x, y int) int {
	return (((r.Intn(a+1) | (x + r.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// scaledA shrinks a NURand A constant proportionally when the key range is
// smaller than the spec's, keeping the skew (and thus lock contention)
// comparable instead of degenerate. The result is of the form 2^k - 1.
func scaledA(specA, specRange, actualRange int) int {
	if actualRange >= specRange {
		return specA
	}
	target := (specA + 1) * actualRange / specRange
	a := 1
	for a*2 <= target {
		a *= 2
	}
	return a - 1
}

// lastNameSyllables are the spec's §4.3.2.3 name fragments.
var lastNameSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName builds the spec customer last name for a number 0..999.
func LastName(num int) string {
	return lastNameSyllables[num/100%10] + lastNameSyllables[num/10%10] + lastNameSyllables[num%10]
}

// randLastNameNum returns the last-name number used at load (uniform over
// the scaled name space) and run time (NURand).
func randLastNameNum(r *rand.Rand) int { return nuRand(r, 255, nuRandCLast, 0, 999) }

// rowText draws the random text columns of the loaded rows into chunks, with
// exactly the RNG calls a string per column would make, and returns each
// column as a substring of its chunk: text costs the load one allocation per
// chunkSize of it, not one per column.
type rowText struct {
	chunk strings.Builder // its String() shares the buffer: no copy
}

// room makes sure the chunk can take n more bytes, starting a fresh one when
// it cannot, and returns where they will start. Strings already handed out
// keep the old chunk alive for as long as they live. A column longer than a
// chunk is still drawn correctly, into a chunk the builder regrows.
func (t *rowText) room(n int) int {
	if t.chunk.Cap()-t.chunk.Len() < n {
		t.chunk = strings.Builder{}
		t.chunk.Grow(chunkSize)
	}
	return t.chunk.Len()
}

// str draws a column of minLen..maxLen random characters. Each character is
// drawn as r.Intn(len(chars)) draws it — the top 31 bits of one Int63, drawn
// again while above the largest multiple of 62 — without Intn's three calls
// down to Int63.
func (t *rowText) str(r *rand.Rand, minLen, maxLen int) string {
	const chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	const base = uint32(len(chars))
	const top = (1<<31 - 1) - (1<<31)%base
	n := minLen
	if maxLen > minLen {
		n += r.Intn(maxLen - minLen + 1)
	}
	start := t.room(n)
	var buf [512]byte // every loaded column fits: one Write each
	for n > 0 {
		b := buf[:min(n, len(buf))]
		for i := range b {
			v := uint32(r.Int63() >> 32)
			for v > top {
				v = uint32(r.Int63() >> 32)
			}
			b[i] = chars[v%base]
		}
		t.chunk.Write(b)
		n -= len(b)
	}
	return t.chunk.String()[start:]
}

// zip draws a spec zip code.
func (t *rowText) zip(r *rand.Rand) string {
	n := r.Intn(10000)
	start := t.room(9)
	for div := 1000; div > 0; div /= 10 {
		t.chunk.WriteByte(byte('0' + n/div%10))
	}
	t.chunk.WriteString("11111")
	return t.chunk.String()[start:]
}

// address draws the five columns a warehouse and a district share, in this
// order.
func (t *rowText) address(r *rand.Rand) (name, street, city, state, zip string) {
	name = t.str(r, 6, 10)
	street = t.str(r, 10, 20)
	city = t.str(r, 10, 20)
	state = t.str(r, 2, 2)
	zip = t.zip(r)
	return name, street, city, state, zip
}

// App binds the TPC-C schema and workload to one engine instance. It also
// holds the driver-side structures the paper's external driver system
// keeps: the customer name index and the new-order queues.
type App struct {
	In  *engine.Instance
	Cfg Config

	// Replica, when set, serves a ReplicaShare fraction of the read-only
	// transactions (Order-Status, Stock-Level) from a stand-by snapshot,
	// falling back to the primary when the replica refuses (too stale).
	Replica      Replica
	ReplicaShare float64
	// ReplicaServed/ReplicaFallback count how the routed read-only
	// transactions resolved.
	ReplicaServed   int64
	ReplicaFallback int64

	// byName maps (w, d, lastname) to the customer IDs sharing that
	// name, sorted by ID: customerByName picks the middle one (the spec's
	// midpoint rule, which orders by first name).
	byName map[nameKey][]int
	// noQueue holds undelivered order IDs per district (driver-side
	// view of the NEW_ORDER table, FIFO).
	noQueue map[int64][]int
	// histSeq numbers runtime history rows uniquely.
	histSeq int64
}

// NewApp returns an unloaded application.
func NewApp(in *engine.Instance, cfg Config) *App {
	return &App{
		In:      in,
		Cfg:     cfg,
		byName:  make(map[nameKey][]int),
		noQueue: make(map[int64][]int),
	}
}

// nameKey is the name index's key: one district's customers of one last
// name.
type nameKey struct {
	w, d int
	last string
}

// tableSpec is the physical sizing of one table: segment blocks plus the
// key-clustering factor (consecutive keys per block).
type tableSpec struct {
	blocks  int
	cluster int
}

// tableSpecs sizes each table's segment for the given scale, leaving
// room for run-time growth of orders/order-lines/history, and clusters
// sequential keys so hot insert paths stay cache-resident (like B-tree
// right edges in a real DBMS).
func (c Config) tableSpecs() map[string]tableSpec {
	w := c.Warehouses
	dist := w * Districts
	cust := dist * c.CustomersPerDistrict
	stock := w * c.Items
	at := func(n, per int) int { return 1 + n/per }
	return map[string]tableSpec{
		TableWarehouse: {at(w, 16), 1},
		TableDistrict:  {at(dist, 16), 1},
		TableCustomer:  {at(cust, 24), 24},
		TableHistory:   {at(2*cust, 64), 64}, // grows: one row per Payment
		TableOrder:     {at(4*cust, 64), 64}, // grows
		TableNewOrder:  {at(cust, 32), 64},
		TableOrderLine: {at(30*cust, 100), 100}, // grows: ~10 lines per order
		TableItem:      {at(c.Items, 64), 64},
		TableStock:     {at(stock, 24), 24},
	}
}

// partDivs maps each warehouse-partitioned table to the key divisor that
// extracts the warehouse number (key/div == w; see the *Key builders).
// Item (the shared catalogue) and History (runtime rows are keyed by a
// global sequence, not warehouse-encoded keys) stay unpartitioned in the
// shared tablespace.
var partDivs = map[string]int64{
	TableWarehouse: 1,
	TableDistrict:  100,
	TableCustomer:  10000000,
	TableStock:     1000000,
	TableOrder:     1000000000,
	TableNewOrder:  1000000000,
	TableOrderLine: 100000000000,
}

// warehouseTablespace names warehouse w's tablespace in the partitioned
// (W > 1) layout.
func warehouseTablespace(w int) string {
	return fmt.Sprintf("%s_W%02d", Tablespace, w)
}

// CreateSchema creates the physical layout and the nine tables. At W = 1
// everything lives in one shared tablespace, the exact layout the paper's
// single-warehouse experiments (and their fault targets, e.g.
// "TPCC_01.dbf") rely on. At W > 1 each warehouse gets its own tablespace
// holding its partitions of the seven warehouse-keyed tables, spread
// round-robin over the data disks; item and history stay in the shared
// tablespace (which keeps the shared fault targets valid at any W).
func (a *App) CreateSchema(p *sim.Proc, disks []string) error {
	if a.Cfg.Warehouses <= 1 {
		return a.createSchemaShared(p, disks)
	}
	return a.createSchemaPartitioned(p, disks)
}

// createSchemaShared is the single-tablespace layout (sized with headroom
// over the segments, like a real installation).
func (a *App) createSchemaShared(p *sim.Proc, disks []string) error {
	specs := a.Cfg.tableSpecs()
	total := 0
	for _, sp := range specs {
		total += sp.blocks
	}
	perFile := total/len(disks) + total/(4*len(disks)) + 16 // ~25% headroom
	if _, err := a.In.CreateTablespace(p, Tablespace, disks, perFile); err != nil {
		return err
	}
	if err := a.In.CreateUser(p, owner, Tablespace); err != nil {
		return err
	}
	for _, tbl := range Tables {
		sp := specs[tbl]
		if err := a.In.CreateTableClustered(p, tbl, owner, Tablespace, sp.blocks, sp.cluster); err != nil {
			return err
		}
	}
	return nil
}

// createSchemaPartitioned is the per-warehouse layout for W > 1.
func (a *App) createSchemaPartitioned(p *sim.Proc, disks []string) error {
	full := a.Cfg.tableSpecs()
	one := a.Cfg
	one.Warehouses = 1
	per := one.tableSpecs() // one warehouse's partition sizing

	// Shared tablespace on every data disk: item + history.
	shared := full[TableItem].blocks + full[TableHistory].blocks
	sharedPerFile := shared/len(disks) + shared/(4*len(disks)) + 16
	if _, err := a.In.CreateTablespace(p, Tablespace, disks, sharedPerFile); err != nil {
		return err
	}
	if err := a.In.CreateUser(p, owner, Tablespace); err != nil {
		return err
	}

	// One tablespace per warehouse, one datafile on a round-robin disk,
	// sized for that warehouse's seven partitions plus headroom.
	perWarehouse := 0
	for tbl := range partDivs {
		perWarehouse += per[tbl].blocks
	}
	wts := make([]string, 0, a.Cfg.Warehouses)
	for w := 1; w <= a.Cfg.Warehouses; w++ {
		name := warehouseTablespace(w)
		disk := disks[(w-1)%len(disks)]
		size := perWarehouse + perWarehouse/4 + 16
		if _, err := a.In.CreateTablespace(p, name, []string{disk}, size); err != nil {
			return err
		}
		wts = append(wts, name)
	}

	for _, tbl := range Tables {
		div, partitioned := partDivs[tbl]
		if !partitioned {
			sp := full[tbl]
			if err := a.In.CreateTableClustered(p, tbl, owner, Tablespace, sp.blocks, sp.cluster); err != nil {
				return err
			}
			continue
		}
		sp := per[tbl]
		if err := a.In.CreateTablePartitioned(p, tbl, owner, wts, sp.blocks, sp.cluster, div); err != nil {
			return err
		}
	}
	return nil
}

// LoadSet is one generated database: per table, its block images by position
// in Table.Blocks(). It is a pure function of the seed and the schema layout,
// so it can be installed into every instance that has that layout — the
// images are shared, never copied, and nobody changes a shared image.
type LoadSet map[string][]*storage.Block

// loadOrder is the order tables are installed in: it fixes the load's I/O
// sequence, and with it the load's virtual time.
var loadOrder = []string{
	TableItem, TableWarehouse, TableDistrict, TableCustomer, TableHistory,
	TableOrder, TableNewOrder, TableOrderLine, TableStock,
}

// Load populates the database per TPC-C §4.3 (scaled) with a direct-path
// load and builds the driver-side indexes. The schema must exist.
func (a *App) Load(p *sim.Proc, r *rand.Rand) error {
	set, err := a.Generate(r)
	if err != nil {
		return err
	}
	return a.Install(p, set)
}

// Install writes a generated database into the app's instance: one block read
// and one block write per loaded block, table after table. It costs virtual
// time and next to no host time, and builds no driver-side index: a stand-by
// is instantiated from the primary's set this way.
func (a *App) Install(p *sim.Proc, set LoadSet) error {
	for _, table := range loadOrder {
		if err := a.In.InstallImages(p, table, set[table]); err != nil {
			return fmt.Errorf("tpcc: load %s: %w", table, err)
		}
	}
	return nil
}

// Generate draws the seeded rows and encodes each straight into its home
// block's image, for the layout of the app's instance (the schema must
// exist), and builds the driver-side indexes. It costs host time only. The
// RNG call order is what makes a seed's database, so a row's drawn columns
// are set by statements of their own, in draw order; only a row's first draw
// sits in the literal that starts it. That is not always the order the row
// struct lists them: a customer's last name and credit come before its first
// name and its discount between phone and data, an order's line count before
// its carrier, an order line's dist info before its amount.
func (a *App) Generate(r *rand.Rand) (LoadSet, error) {
	cfg := a.Cfg
	stages := make(map[string]*engine.Stage, len(loadOrder))
	for _, table := range loadOrder {
		st, err := a.In.StageTable(table)
		if err != nil {
			return nil, err
		}
		stages[table] = st
	}
	items, warehouses, districts, customers := stages[TableItem], stages[TableWarehouse], stages[TableDistrict], stages[TableCustomer]
	history, orders, newOrders := stages[TableHistory], stages[TableOrder], stages[TableNewOrder]
	orderLines, stocks := stages[TableOrderLine], stages[TableStock]
	var (
		txt  rowText
		rows chunk // every row image of the set is cut from here
	)

	for i := 1; i <= cfg.Items; i++ {
		it := Item{ID: i, ImID: 1 + r.Intn(10000)}
		it.Name = txt.str(r, 14, 24)
		it.Price = 1 + float64(r.Intn(9900))/100
		it.Data = txt.str(r, 26, 50)
		items.Put(IKey(i), it.encode(&rows))
	}

	for w := 1; w <= cfg.Warehouses; w++ {
		// W_YTD equals the sum of the warehouse's loaded history amounts
		// (10 per customer), the identity conditions C8/C9 audit (spec
		// §3.3.2.8–9). The spec's 300,000 is this same identity at the
		// unscaled 10×3000 customers.
		wh := Warehouse{ID: w, YTD: 10 * float64(Districts*cfg.CustomersPerDistrict)}
		wh.Name, wh.Street, wh.City, wh.State, wh.Zip = txt.address(r)
		wh.Tax = float64(r.Intn(2000)) / 10000
		warehouses.Put(WKey(w), wh.encode(&rows))

		for i := 1; i <= cfg.Items; i++ {
			st := Stock{ItemID: i, WID: w, Quantity: 10 + r.Intn(91)}
			st.Data = txt.str(r, 26, 50)
			for j := range st.Dists {
				st.Dists[j] = txt.str(r, 24, 24)
			}
			stocks.Put(SKey(w, i), st.encode(&rows))
		}

		for d := 1; d <= Districts; d++ {
			// Every customer starts with exactly one order, so
			// next_o_id is customers+1. D_YTD = 10 per loaded history
			// row of the district (C9).
			dist := District{ID: d, WID: w, YTD: 10 * float64(cfg.CustomersPerDistrict), NextOID: cfg.CustomersPerDistrict + 1}
			dist.Name, dist.Street, dist.City, dist.State, dist.Zip = txt.address(r)
			dist.Tax = float64(r.Intn(2000)) / 10000
			districts.Put(DKey(w, d), dist.encode(&rows))

			// Customers: the first third get names from the
			// name-number space, the rest random names too (the
			// spec uses NURand names for the first 1000).
			perm := r.Perm(cfg.CustomersPerDistrict) // customer -> order permutation
			var undelivered []int                    // the district's new-order queue
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				cust := Customer{ID: c, DID: d, WID: w, Middle: "OE", Credit: "GC", CreditLim: 50000, Balance: -10}
				cust.Last = LastName(randLastNameNum(r))
				if r.Intn(10) == 0 {
					cust.Credit = "BC"
				}
				cust.First = txt.str(r, 8, 16)
				cust.Street = txt.str(r, 10, 20)
				cust.City = txt.str(r, 10, 20)
				cust.State = txt.str(r, 2, 2)
				cust.Zip = txt.zip(r)
				cust.Phone = txt.str(r, 16, 16)
				cust.Discount = float64(r.Intn(5000)) / 10000
				cust.Data = txt.str(r, 200, 400)
				customers.Put(CKey(w, d, c), cust.encode(&rows))
				nk := nameKey{w, d, cust.Last}
				a.byName[nk] = append(a.byName[nk], c)

				h := History{CID: c, CDID: d, CWID: w, DID: d, WID: w, Amount: 10}
				h.Data = txt.str(r, 12, 24)
				history.Put(CKey(w, d, c), h.encode(&rows))

				// One initial order per customer, order id from
				// the permutation.
				o := perm[c-1] + 1
				ord := Order{ID: o, DID: d, WID: w, CID: c, OLCnt: 5 + r.Intn(11), AllLocal: 1}
				delivered := o < cfg.CustomersPerDistrict*2/3+1
				if delivered {
					ord.CarrierID = 1 + r.Intn(10)
				}
				orders.Put(OKey(w, d, o), ord.encode(&rows))
				if !delivered {
					no := NewOrderRow{OID: o, DID: d, WID: w}
					newOrders.Put(OKey(w, d, o), no.encode(&rows))
					undelivered = append(undelivered, o)
				}
				for ol := 1; ol <= ord.OLCnt; ol++ {
					line := OrderLine{OID: o, DID: d, WID: w, Number: ol, ItemID: 1 + r.Intn(cfg.Items), SupplyWID: w, Quantity: 5}
					line.DistInfo = txt.str(r, 24, 24)
					if delivered {
						line.DeliveryTime = 1
						line.Amount = float64(r.Intn(999999)) / 100
					}
					orderLines.Put(OLKey(w, d, o, ol), line.encode(&rows))
				}
			}
			// The new-order queue is served oldest order first.
			sort.Ints(undelivered)
			a.noQueue[DKey(w, d)] = undelivered
		}
	}

	// Sort the name index deterministically.
	for k := range a.byName {
		sort.Ints(a.byName[k])
	}
	a.histSeq = int64(cfg.Warehouses*Districts*cfg.CustomersPerDistrict) * 4

	set := make(LoadSet, len(stages))
	for table, st := range stages {
		set[table] = st.Images()
	}
	return set, nil
}
