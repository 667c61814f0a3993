// Package tpcc implements the TPC-C workload the paper drives its
// benchmark with: the nine-table schema, spec-style data generation, the
// five transaction types, the terminal driver, the tpmC metric and the
// consistency conditions used to detect integrity violations.
//
// The implementation follows TPC-C v5 in structure (transaction mix,
// NURand key skew, per-table row content) but is scaled down and runs on
// the simulated engine; keying/think times are configurable. Remote
// (cross-warehouse) accesses are supported for Payment and New-Order per
// the spec percentages.
package tpcc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Table names.
const (
	TableWarehouse = "warehouse"
	TableDistrict  = "district"
	TableCustomer  = "customer"
	TableHistory   = "history"
	TableOrder     = "orders"
	TableNewOrder  = "new_order"
	TableOrderLine = "order_line"
	TableItem      = "item"
	TableStock     = "stock"
)

// Tables lists all TPC-C tables.
var Tables = []string{
	TableWarehouse, TableDistrict, TableCustomer, TableHistory,
	TableOrder, TableNewOrder, TableOrderLine, TableItem, TableStock,
}

// Key builders. Districts are 1..10, customers 1..CustomersPerDistrict,
// items 1..Items. All keys are int64 and unique within their table.

// WKey returns the warehouse row key.
func WKey(w int) int64 { return int64(w) }

// DKey returns the district row key.
func DKey(w, d int) int64 { return int64(w)*100 + int64(d) }

// CKey returns the customer row key.
func CKey(w, d, c int) int64 { return DKey(w, d)*100000 + int64(c) }

// OKey returns the order (and new_order) row key.
func OKey(w, d, o int) int64 { return DKey(w, d)*10000000 + int64(o) }

// OLKey returns the order-line row key.
func OLKey(w, d, o, ol int) int64 { return OKey(w, d, o)*100 + int64(ol) }

// IKey returns the item row key.
func IKey(i int) int64 { return int64(i) }

// SKey returns the stock row key.
func SKey(w, i int) int64 { return int64(w)*1000000 + int64(i) }

// ErrBadRow reports a row that failed to decode.
var ErrBadRow = errors.New("tpcc: bad row encoding")

// codec walks a row's one field list in one of three steps. Encoding takes
// two passes: the first (measure) adds up the exact length (8 bytes per
// integer or money field, 4 + len per string), the second (write) writes into
// a buffer of exactly that size. A row costs one allocation — none when the
// load cuts the buffer from its chunk — and its size and its fields cannot
// disagree:
//
//	c := codec{from: from}
//	for c.pass() {
//		x.fields(&c)
//	}
//	return c.b
//
// Decoding (read, the zero step) takes one pass, front to back, and
// allocates nothing: every string field is a view of the row's own bytes
// (see view), so a decoded row is as cheap as its integers.
type codec struct {
	b    []byte
	step uint8  // read, measure or write
	n    int    // measure: the length so far
	from *chunk // write: where the buffer is cut from; nil allocates it
	off  int    // read: next unread byte of b
	err  error
}

const (
	read uint8 = iota
	measure
	write
)

// pass moves an encoding on to its next step and reports whether there is
// one.
func (c *codec) pass() bool {
	c.step++
	if c.step == write {
		c.b = c.from.cut(c.n)
	}
	return c.step <= write
}

// chunk hands the load its row buffers: each exactly sized and capped at its
// own length, so that growing one never reaches its neighbour, cut from
// allocations of chunkSize. 8 KiB, because that is what a dead row may keep
// alive: the rows of a chunk are replaced one by one as the workload runs, and
// the chunk goes with the last of them — the granularity rows were packed at
// before, one buffer per loaded block. 64 KiB chunks pin eight times as much
// behind one long-lived row and buy nothing that shows: 0.38 allocations per
// loaded row against 0.41, the same peak_rss_mb (crash_recover 208 against
// 211 MiB, replica_failover 163 against 162).
type chunk struct{ free []byte }

const chunkSize = 8 << 10

// cut returns an empty buffer of capacity n. A nil chunk allocates it: the
// run-time Encode, whose rows live and die one by one.
func (c *chunk) cut(n int) []byte {
	if c == nil {
		return make([]byte, 0, n)
	}
	if n > len(c.free) {
		c.free = make([]byte, max(n, chunkSize))
	}
	b := c.free[:0:n]
	c.free = c.free[n:]
	return b
}

// take consumes the next n bytes and returns where they start, or -1 (and
// ErrBadRow from then on) when the row is too short.
func (c *codec) take(n int) int {
	if c.err != nil || len(c.b)-c.off < n {
		c.err = ErrBadRow
		return -1
	}
	c.off += n
	return c.off - n
}

func (c *codec) i64(v *int64) {
	switch c.step {
	case measure:
		c.n += 8
	case write:
		c.b = binary.BigEndian.AppendUint64(c.b, uint64(*v))
	default:
		if at := c.take(8); at >= 0 {
			*v = int64(binary.BigEndian.Uint64(c.b[at:]))
		}
	}
}

func (c *codec) int(v *int) {
	x := int64(*v)
	c.i64(&x)
	if c.step == read {
		*v = int(x)
	}
}

// money is kept in whole cents.
func (c *codec) money(v *float64) {
	x := int64(math.Round(*v * 100))
	c.i64(&x)
	if c.step == read {
		*v = float64(x) / 100
	}
}

func (c *codec) str(v *string) {
	switch c.step {
	case measure:
		c.n += 4 + len(*v)
	case write:
		c.b = append(binary.BigEndian.AppendUint32(c.b, uint32(len(*v))), *v...)
	default:
		if at := c.take(4); at >= 0 {
			n := int(binary.BigEndian.Uint32(c.b[at:]))
			if at = c.take(n); at >= 0 {
				*v = view(c.b, at, n)
			}
		}
	}
}

// view returns b[at:at+n] as a string that shares b's bytes instead of
// copying them. That is sound only for a row image, which is replaced and
// never written in place (DESIGN.md §4b): the string reads what the row held
// when it was decoded for as long as the string lives, and keeps the image's
// buffer alive no longer than that. An empty field is "" without taking the
// address of b[at], which may lie one past the end of b.
func view(b []byte, at, n int) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&b[at], n)
}

// intField reads integer field i of a row whose first i+1 fields are all
// integers, without decoding the rest.
func intField(b []byte, i int) (int, error) {
	if len(b) < 8*(i+1) {
		return 0, ErrBadRow
	}
	return int(int64(binary.BigEndian.Uint64(b[8*i:]))), nil
}

// Warehouse is one row of the WAREHOUSE table.
type Warehouse struct {
	ID     int
	Name   string
	Street string
	City   string
	State  string
	Zip    string
	Tax    float64
	YTD    float64
}

// fields is the row's layout, for encode and DecodeWarehouse alike.
func (w *Warehouse) fields(c *codec) {
	c.int(&w.ID)
	c.str(&w.Name)
	c.str(&w.Street)
	c.str(&w.City)
	c.str(&w.State)
	c.str(&w.Zip)
	c.money(&w.Tax)
	c.money(&w.YTD)
}

// Encode serialises the row.
func (w *Warehouse) Encode() []byte { return w.encode(nil) }

func (w *Warehouse) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		w.fields(&c)
	}
	return c.b
}

// DecodeWarehouse parses a row.
func DecodeWarehouse(b []byte) (w Warehouse, err error) {
	c := codec{b: b}
	w.fields(&c)
	return w, c.err
}

// District is one row of the DISTRICT table.
type District struct {
	ID      int
	WID     int
	Name    string
	Street  string
	City    string
	State   string
	Zip     string
	Tax     float64
	YTD     float64
	NextOID int
}

func (x *District) fields(c *codec) {
	c.int(&x.ID)
	c.int(&x.WID)
	c.str(&x.Name)
	c.str(&x.Street)
	c.str(&x.City)
	c.str(&x.State)
	c.str(&x.Zip)
	c.money(&x.Tax)
	c.money(&x.YTD)
	c.int(&x.NextOID)
}

// Encode serialises the row.
func (x *District) Encode() []byte { return x.encode(nil) }

func (x *District) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		x.fields(&c)
	}
	return c.b
}

// DecodeDistrict parses a row.
func DecodeDistrict(b []byte) (x District, err error) {
	c := codec{b: b}
	x.fields(&c)
	return x, c.err
}

// Customer is one row of the CUSTOMER table.
type Customer struct {
	ID          int
	DID         int
	WID         int
	First       string
	Middle      string
	Last        string
	Street      string
	City        string
	State       string
	Zip         string
	Phone       string
	Credit      string // "GC" or "BC"
	CreditLim   float64
	Discount    float64
	Balance     float64
	YTDPayment  float64
	PaymentCnt  int
	DeliveryCnt int
	Data        string
}

func (x *Customer) fields(c *codec) {
	c.int(&x.ID)
	c.int(&x.DID)
	c.int(&x.WID)
	c.str(&x.First)
	c.str(&x.Middle)
	c.str(&x.Last)
	c.str(&x.Street)
	c.str(&x.City)
	c.str(&x.State)
	c.str(&x.Zip)
	c.str(&x.Phone)
	c.str(&x.Credit)
	c.money(&x.CreditLim)
	c.money(&x.Discount)
	c.money(&x.Balance)
	c.money(&x.YTDPayment)
	c.int(&x.PaymentCnt)
	c.int(&x.DeliveryCnt)
	c.str(&x.Data)
}

// Encode serialises the row.
func (x *Customer) Encode() []byte { return x.encode(nil) }

func (x *Customer) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		x.fields(&c)
	}
	return c.b
}

// DecodeCustomer parses a row.
func DecodeCustomer(b []byte) (x Customer, err error) {
	c := codec{b: b}
	x.fields(&c)
	return x, c.err
}

// History is one row of the HISTORY table.
type History struct {
	CID    int
	CDID   int
	CWID   int
	DID    int
	WID    int
	Amount float64
	Data   string
}

func (h *History) fields(c *codec) {
	c.int(&h.CID)
	c.int(&h.CDID)
	c.int(&h.CWID)
	c.int(&h.DID)
	c.int(&h.WID)
	c.money(&h.Amount)
	c.str(&h.Data)
}

// Encode serialises the row.
func (h *History) Encode() []byte { return h.encode(nil) }

func (h *History) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		h.fields(&c)
	}
	return c.b
}

// DecodeHistory parses a row.
func DecodeHistory(b []byte) (h History, err error) {
	c := codec{b: b}
	h.fields(&c)
	return h, c.err
}

// Order is one row of the ORDERS table.
type Order struct {
	ID        int
	DID       int
	WID       int
	CID       int
	EntryTime int64 // virtual nanoseconds
	CarrierID int   // 0 = not delivered
	OLCnt     int
	AllLocal  int
}

func (o *Order) fields(c *codec) {
	c.int(&o.ID)
	c.int(&o.DID)
	c.int(&o.WID)
	c.int(&o.CID)
	c.i64(&o.EntryTime)
	c.int(&o.CarrierID)
	c.int(&o.OLCnt)
	c.int(&o.AllLocal)
}

// Encode serialises the row.
func (o *Order) Encode() []byte { return o.encode(nil) }

func (o *Order) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		o.fields(&c)
	}
	return c.b
}

// DecodeOrder parses a row.
func DecodeOrder(b []byte) (o Order, err error) {
	c := codec{b: b}
	o.fields(&c)
	return o, c.err
}

// NewOrderRow is one row of the NEW_ORDER table.
type NewOrderRow struct {
	OID int
	DID int
	WID int
}

func (n *NewOrderRow) fields(c *codec) {
	c.int(&n.OID)
	c.int(&n.DID)
	c.int(&n.WID)
}

// Encode serialises the row.
func (n *NewOrderRow) Encode() []byte { return n.encode(nil) }

func (n *NewOrderRow) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		n.fields(&c)
	}
	return c.b
}

// DecodeNewOrder parses a row.
func DecodeNewOrder(b []byte) (n NewOrderRow, err error) {
	c := codec{b: b}
	n.fields(&c)
	return n, c.err
}

// OrderLine is one row of the ORDER_LINE table.
type OrderLine struct {
	OID          int
	DID          int
	WID          int
	Number       int
	ItemID       int
	SupplyWID    int
	DeliveryTime int64 // 0 = not delivered
	Quantity     int
	Amount       float64
	DistInfo     string
}

func (l *OrderLine) fields(c *codec) {
	c.int(&l.OID)
	c.int(&l.DID)
	c.int(&l.WID)
	c.int(&l.Number)
	c.int(&l.ItemID)
	c.int(&l.SupplyWID)
	c.i64(&l.DeliveryTime)
	c.int(&l.Quantity)
	c.money(&l.Amount)
	c.str(&l.DistInfo)
}

// Encode serialises the row.
func (l *OrderLine) Encode() []byte { return l.encode(nil) }

func (l *OrderLine) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		l.fields(&c)
	}
	return c.b
}

// DecodeOrderLine parses a row.
func DecodeOrderLine(b []byte) (l OrderLine, err error) {
	c := codec{b: b}
	l.fields(&c)
	return l, c.err
}

// orderLineItemID reads OrderLine.ItemID alone: Stock-Level looks at nothing
// else of the up to 300 order lines it visits.
func orderLineItemID(b []byte) (int, error) { return intField(b, 4) }

// Item is one row of the ITEM table.
type Item struct {
	ID    int
	ImID  int
	Name  string
	Price float64
	Data  string
}

func (it *Item) fields(c *codec) {
	c.int(&it.ID)
	c.int(&it.ImID)
	c.str(&it.Name)
	c.money(&it.Price)
	c.str(&it.Data)
}

// Encode serialises the row.
func (it *Item) Encode() []byte { return it.encode(nil) }

func (it *Item) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		it.fields(&c)
	}
	return c.b
}

// DecodeItem parses a row.
func DecodeItem(b []byte) (it Item, err error) {
	c := codec{b: b}
	it.fields(&c)
	return it, c.err
}

// Stock is one row of the STOCK table.
type Stock struct {
	ItemID    int
	WID       int
	Quantity  int
	YTD       int
	OrderCnt  int
	RemoteCnt int
	Data      string
	Dists     [10]string
}

func (s *Stock) fields(c *codec) {
	c.int(&s.ItemID)
	c.int(&s.WID)
	c.int(&s.Quantity)
	c.int(&s.YTD)
	c.int(&s.OrderCnt)
	c.int(&s.RemoteCnt)
	c.str(&s.Data)
	for i := range s.Dists {
		c.str(&s.Dists[i])
	}
}

// Encode serialises the row.
func (s *Stock) Encode() []byte { return s.encode(nil) }

func (s *Stock) encode(from *chunk) []byte {
	c := codec{from: from}
	for c.pass() {
		s.fields(&c)
	}
	return c.b
}

// DecodeStock parses a row.
func DecodeStock(b []byte) (s Stock, err error) {
	c := codec{b: b}
	s.fields(&c)
	return s, c.err
}

// stockQuantity reads Stock.Quantity alone, for Stock-Level's threshold
// count.
func stockQuantity(b []byte) (int, error) { return intField(b, 2) }

// fmtOrderKey formats an order identity for error messages.
func fmtOrderKey(w, d, o int) string { return fmt.Sprintf("w%d/d%d/o%d", w, d, o) }
