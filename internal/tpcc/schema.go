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

// enc builds a row in two passes over one field list: the first pass adds
// up the exact length (8 bytes per integer or money field, 4 + len per
// string), the second writes into a buffer of exactly that size. A row costs
// one allocation — none when the load cuts the buffer from its chunk — and
// its size and its fields cannot disagree:
//
//	e := enc{from: from}
//	for e.pass() {
//		e.i64(...)
//		e.str(...)
//	}
//	return e.b
type enc struct {
	b    []byte
	n    int    // pass 1: the length so far
	step uint8  // 1 = measuring, 2 = writing
	from *chunk // where the buffer is cut from; nil allocates it
}

func (e *enc) pass() bool {
	e.step++
	if e.step == 2 {
		e.b = e.from.cut(e.n)
	}
	return e.step <= 2
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

func (e *enc) i64(v int64) {
	if e.step == 1 {
		e.n += 8
		return
	}
	e.b = binary.BigEndian.AppendUint64(e.b, uint64(v))
}

func (e *enc) f64(v float64) { e.i64(int64(math.Round(v * 100))) } // money: cents

func (e *enc) str(s string) {
	if e.step == 1 {
		e.n += 4 + len(s)
		return
	}
	e.b = append(binary.BigEndian.AppendUint32(e.b, uint32(len(s))), s...)
}

// dec reads a row front to back. The first string field converts the rest
// of the row to one string and every string field is a substring of it, so
// a decode allocates once however many text columns the row has, and not at
// all for an all-integer row.
type dec struct {
	b    []byte
	off  int    // next unread byte of b
	text string // string(b), once a string field has been read
	err  error
	// noText makes str check a text field's bounds and return "" without
	// converting anything: for readers that want a row's numbers only.
	noText bool
}

// take consumes the next n bytes and returns where they start, or -1 (and
// ErrBadRow from then on) when the row is too short.
func (d *dec) take(n int) int {
	if d.err != nil || len(d.b)-d.off < n {
		d.err = ErrBadRow
		return -1
	}
	d.off += n
	return d.off - n
}

func (d *dec) i64() int64 {
	at := d.take(8)
	if at < 0 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(d.b[at:]))
}

func (d *dec) f64() float64 { return float64(d.i64()) / 100 }

func (d *dec) str() string {
	at := d.take(4)
	if at < 0 {
		return ""
	}
	n := int(binary.BigEndian.Uint32(d.b[at:]))
	if at = d.take(n); at < 0 || d.noText {
		return ""
	}
	if d.text == "" {
		// Rebase on the first string's first byte: the integers already
		// read need not be copied into the text.
		d.b, d.off, at = d.b[at:], d.off-at, 0
		d.text = string(d.b)
	}
	return d.text[at : at+n]
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

// Encode serialises the row.
func (w *Warehouse) Encode() []byte { return w.encode(nil) }

func (w *Warehouse) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(w.ID))
		e.str(w.Name)
		e.str(w.Street)
		e.str(w.City)
		e.str(w.State)
		e.str(w.Zip)
		e.f64(w.Tax)
		e.f64(w.YTD)
	}
	return e.b
}

// DecodeWarehouse parses a row.
func DecodeWarehouse(b []byte) (Warehouse, error) {
	d := &dec{b: b}
	w := Warehouse{
		ID:     int(d.i64()),
		Name:   d.str(),
		Street: d.str(),
		City:   d.str(),
		State:  d.str(),
		Zip:    d.str(),
		Tax:    d.f64(),
		YTD:    d.f64(),
	}
	return w, d.err
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

// Encode serialises the row.
func (x *District) Encode() []byte { return x.encode(nil) }

func (x *District) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(x.ID))
		e.i64(int64(x.WID))
		e.str(x.Name)
		e.str(x.Street)
		e.str(x.City)
		e.str(x.State)
		e.str(x.Zip)
		e.f64(x.Tax)
		e.f64(x.YTD)
		e.i64(int64(x.NextOID))
	}
	return e.b
}

// DecodeDistrict parses a row.
func DecodeDistrict(b []byte) (District, error) {
	d := &dec{b: b}
	x := District{
		ID:      int(d.i64()),
		WID:     int(d.i64()),
		Name:    d.str(),
		Street:  d.str(),
		City:    d.str(),
		State:   d.str(),
		Zip:     d.str(),
		Tax:     d.f64(),
		YTD:     d.f64(),
		NextOID: int(d.i64()),
	}
	return x, d.err
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

// Encode serialises the row.
func (c *Customer) Encode() []byte { return c.encode(nil) }

func (c *Customer) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(c.ID))
		e.i64(int64(c.DID))
		e.i64(int64(c.WID))
		e.str(c.First)
		e.str(c.Middle)
		e.str(c.Last)
		e.str(c.Street)
		e.str(c.City)
		e.str(c.State)
		e.str(c.Zip)
		e.str(c.Phone)
		e.str(c.Credit)
		e.f64(c.CreditLim)
		e.f64(c.Discount)
		e.f64(c.Balance)
		e.f64(c.YTDPayment)
		e.i64(int64(c.PaymentCnt))
		e.i64(int64(c.DeliveryCnt))
		e.str(c.Data)
	}
	return e.b
}

// DecodeCustomer parses a row.
func DecodeCustomer(b []byte) (Customer, error) {
	d := &dec{b: b}
	c := Customer{
		ID:          int(d.i64()),
		DID:         int(d.i64()),
		WID:         int(d.i64()),
		First:       d.str(),
		Middle:      d.str(),
		Last:        d.str(),
		Street:      d.str(),
		City:        d.str(),
		State:       d.str(),
		Zip:         d.str(),
		Phone:       d.str(),
		Credit:      d.str(),
		CreditLim:   d.f64(),
		Discount:    d.f64(),
		Balance:     d.f64(),
		YTDPayment:  d.f64(),
		PaymentCnt:  int(d.i64()),
		DeliveryCnt: int(d.i64()),
		Data:        d.str(),
	}
	return c, d.err
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

// Encode serialises the row.
func (h *History) Encode() []byte { return h.encode(nil) }

func (h *History) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(h.CID))
		e.i64(int64(h.CDID))
		e.i64(int64(h.CWID))
		e.i64(int64(h.DID))
		e.i64(int64(h.WID))
		e.f64(h.Amount)
		e.str(h.Data)
	}
	return e.b
}

// DecodeHistory parses a row.
func DecodeHistory(b []byte) (History, error) { return decodeHistory(&dec{b: b}) }

func decodeHistory(d *dec) (History, error) {
	h := History{
		CID:    int(d.i64()),
		CDID:   int(d.i64()),
		CWID:   int(d.i64()),
		DID:    int(d.i64()),
		WID:    int(d.i64()),
		Amount: d.f64(),
		Data:   d.str(),
	}
	return h, d.err
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

// Encode serialises the row.
func (o *Order) Encode() []byte { return o.encode(nil) }

func (o *Order) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(o.ID))
		e.i64(int64(o.DID))
		e.i64(int64(o.WID))
		e.i64(int64(o.CID))
		e.i64(o.EntryTime)
		e.i64(int64(o.CarrierID))
		e.i64(int64(o.OLCnt))
		e.i64(int64(o.AllLocal))
	}
	return e.b
}

// DecodeOrder parses a row.
func DecodeOrder(b []byte) (Order, error) {
	d := &dec{b: b}
	o := Order{
		ID:        int(d.i64()),
		DID:       int(d.i64()),
		WID:       int(d.i64()),
		CID:       int(d.i64()),
		EntryTime: d.i64(),
		CarrierID: int(d.i64()),
		OLCnt:     int(d.i64()),
		AllLocal:  int(d.i64()),
	}
	return o, d.err
}

// NewOrderRow is one row of the NEW_ORDER table.
type NewOrderRow struct {
	OID int
	DID int
	WID int
}

// Encode serialises the row.
func (n *NewOrderRow) Encode() []byte { return n.encode(nil) }

func (n *NewOrderRow) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(n.OID))
		e.i64(int64(n.DID))
		e.i64(int64(n.WID))
	}
	return e.b
}

// DecodeNewOrder parses a row.
func DecodeNewOrder(b []byte) (NewOrderRow, error) {
	d := &dec{b: b}
	n := NewOrderRow{OID: int(d.i64()), DID: int(d.i64()), WID: int(d.i64())}
	return n, d.err
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

// Encode serialises the row.
func (l *OrderLine) Encode() []byte { return l.encode(nil) }

func (l *OrderLine) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(l.OID))
		e.i64(int64(l.DID))
		e.i64(int64(l.WID))
		e.i64(int64(l.Number))
		e.i64(int64(l.ItemID))
		e.i64(int64(l.SupplyWID))
		e.i64(l.DeliveryTime)
		e.i64(int64(l.Quantity))
		e.f64(l.Amount)
		e.str(l.DistInfo)
	}
	return e.b
}

// DecodeOrderLine parses a row.
func DecodeOrderLine(b []byte) (OrderLine, error) { return decodeOrderLine(&dec{b: b}) }

func decodeOrderLine(d *dec) (OrderLine, error) {
	l := OrderLine{
		OID:          int(d.i64()),
		DID:          int(d.i64()),
		WID:          int(d.i64()),
		Number:       int(d.i64()),
		ItemID:       int(d.i64()),
		SupplyWID:    int(d.i64()),
		DeliveryTime: d.i64(),
		Quantity:     int(d.i64()),
		Amount:       d.f64(),
		DistInfo:     d.str(),
	}
	return l, d.err
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

// Encode serialises the row.
func (it *Item) Encode() []byte { return it.encode(nil) }

func (it *Item) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(it.ID))
		e.i64(int64(it.ImID))
		e.str(it.Name)
		e.f64(it.Price)
		e.str(it.Data)
	}
	return e.b
}

// DecodeItem parses a row.
func DecodeItem(b []byte) (Item, error) {
	d := &dec{b: b}
	it := Item{
		ID:    int(d.i64()),
		ImID:  int(d.i64()),
		Name:  d.str(),
		Price: d.f64(),
		Data:  d.str(),
	}
	return it, d.err
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

// Encode serialises the row.
func (s *Stock) Encode() []byte { return s.encode(nil) }

func (s *Stock) encode(from *chunk) []byte {
	e := enc{from: from}
	for e.pass() {
		e.i64(int64(s.ItemID))
		e.i64(int64(s.WID))
		e.i64(int64(s.Quantity))
		e.i64(int64(s.YTD))
		e.i64(int64(s.OrderCnt))
		e.i64(int64(s.RemoteCnt))
		e.str(s.Data)
		for _, di := range s.Dists {
			e.str(di)
		}
	}
	return e.b
}

// DecodeStock parses a row.
func DecodeStock(b []byte) (Stock, error) {
	d := &dec{b: b}
	s := Stock{
		ItemID:    int(d.i64()),
		WID:       int(d.i64()),
		Quantity:  int(d.i64()),
		YTD:       int(d.i64()),
		OrderCnt:  int(d.i64()),
		RemoteCnt: int(d.i64()),
		Data:      d.str(),
	}
	for i := range s.Dists {
		s.Dists[i] = d.str()
	}
	return s, d.err
}

// stockQuantity reads Stock.Quantity alone, for Stock-Level's threshold
// count.
func stockQuantity(b []byte) (int, error) { return intField(b, 2) }

// fmtOrderKey formats an order identity for error messages.
func fmtOrderKey(w, d, o int) string { return fmt.Sprintf("w%d/d%d/o%d", w, d, o) }
