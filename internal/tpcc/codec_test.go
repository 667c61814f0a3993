package tpcc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/txn"
)

// codecRow is one row type as the codec tests see it: a value, its encoding,
// and a decode that must give the value back.
type codecRow struct {
	name   string
	encode func() []byte
	// roundTrip decodes b and compares the result with the value.
	roundTrip func(b []byte) error
	// decodeAllocs measures one decode of b.
	decodeAllocs func(b []byte) float64
}

func rowOf[T comparable](name string, v T, enc func(*T) []byte, dec func([]byte) (T, error)) codecRow {
	return codecRow{
		name:   name,
		encode: func() []byte { return enc(&v) },
		roundTrip: func(b []byte) error {
			got, err := dec(b)
			if err != nil {
				return err
			}
			if got != v {
				return fmt.Errorf("decoded %+v, want %+v", got, v)
			}
			return nil
		},
		decodeAllocs: func(b []byte) float64 {
			var got T
			n := testing.AllocsPerRun(100, func() { got, _ = dec(b) })
			_ = got
			return n
		},
	}
}

// codecRows builds one row of each of the nine types from a handful of
// values: the fixed sample below and whatever the fuzzer comes up with.
func codecRows(x, y int, at int64, money float64, s1, s2 string) []codecRow {
	st := Stock{ItemID: x, WID: y, Quantity: x - y, YTD: y, OrderCnt: x, RemoteCnt: y, Data: s1}
	for i := range st.Dists {
		st.Dists[i] = s2[:len(s2)*i/len(st.Dists)] // ten different lengths, the first empty
	}
	return []codecRow{
		rowOf("warehouse", Warehouse{ID: x, Name: s1, Street: s2, City: s1, State: "ST", Zip: s2, Tax: money, YTD: -money},
			(*Warehouse).Encode, DecodeWarehouse),
		rowOf("district", District{ID: x, WID: y, Name: s2, Street: s1, City: s2, State: "", Zip: s1, Tax: money, YTD: money, NextOID: y},
			(*District).Encode, DecodeDistrict),
		rowOf("customer", Customer{ID: x, DID: y, WID: x, First: s1, Middle: "OE", Last: s2, Street: s1, City: s2, State: s1,
			Zip: s2, Phone: s1, Credit: "BC", CreditLim: money, Discount: money, Balance: -money, YTDPayment: money,
			PaymentCnt: x, DeliveryCnt: y, Data: s2 + s1 + s2},
			(*Customer).Encode, DecodeCustomer),
		rowOf("history", History{CID: x, CDID: y, CWID: x, DID: y, WID: x, Amount: money, Data: s1},
			(*History).Encode, DecodeHistory),
		rowOf("order", Order{ID: x, DID: y, WID: x, CID: y, EntryTime: at, CarrierID: x, OLCnt: y, AllLocal: 1},
			(*Order).Encode, DecodeOrder),
		rowOf("new_order", NewOrderRow{OID: x, DID: y, WID: x},
			(*NewOrderRow).Encode, DecodeNewOrder),
		rowOf("order_line", OrderLine{OID: y, DID: y, WID: y, Number: y, ItemID: x, SupplyWID: y, DeliveryTime: at, Quantity: y, Amount: money, DistInfo: s2},
			(*OrderLine).Encode, DecodeOrderLine),
		rowOf("item", Item{ID: x, ImID: y, Name: s1, Price: money, Data: s2},
			(*Item).Encode, DecodeItem),
		rowOf("stock", st, (*Stock).Encode, DecodeStock),
	}
}

func sampleRows() []codecRow {
	return codecRows(4711, 3, 1234567890123, 49.95, "acme-w", "dist-info-24-characters!")
}

// TestEncodeBytesPinned holds the row format still: the hashes are what the
// codec produced before it was rewritten to allocate once (computed at the
// parent commit, 6f2cec6). Encoded rows are what redo records, block images,
// backups and every golden are made of.
func TestEncodeBytesPinned(t *testing.T) {
	want := map[string]string{
		"warehouse":  "c6998f1cece5e07c",
		"district":   "a0a9d64d10e07b9f",
		"customer":   "0253864a6b137eba",
		"history":    "e5beb385d0a675eb",
		"order":      "42f6d558c8c02c73",
		"new_order":  "a4a02240d35991eb",
		"order_line": "f1940006ed822c1b",
		"item":       "49f2516a70c5725e",
		"stock":      "ff2df5818dd85982",
	}
	for _, row := range sampleRows() {
		sum := sha256.Sum256(row.encode())
		if got := hex.EncodeToString(sum[:8]); got != want[row.name] {
			t.Errorf("%s: encoding hashes to %s, pinned %s", row.name, got, want[row.name])
		}
	}
}

// TestRowCodecAllocs is the codec's allocation contract: a row is encoded
// into one exactly sized buffer and decoded without allocating, its text
// columns being views of the row, and decoding stays strict: a row cut
// anywhere, inside a text column included, is ErrBadRow.
func TestRowCodecAllocs(t *testing.T) {
	var sink []byte
	rows := sampleRows()
	for _, row := range rows {
		b := row.encode()
		if cap(b) != len(b) {
			t.Errorf("%s: Encode built %d bytes in a buffer of %d", row.name, len(b), cap(b))
		}
		if got := testing.AllocsPerRun(100, func() { sink = row.encode() }); got != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", row.name, got)
		}
		if got := row.decodeAllocs(b); got != 0 {
			t.Errorf("%s: Decode allocates %v times, want 0", row.name, got)
		}
		for n := 0; n < len(b); n++ {
			if err := row.roundTrip(b[:n]); !errors.Is(err, ErrBadRow) {
				t.Errorf("%s cut to %d of %d bytes: %v, want ErrBadRow", row.name, n, len(b), err)
				break
			}
		}
	}
	_ = sink
	line, stock := rows[6].encode(), rows[8].encode()
	var n int
	if got := testing.AllocsPerRun(100, func() { n, _ = orderLineItemID(line) }); got != 0 || n != 4711 {
		t.Errorf("orderLineItemID = %d in %v allocations, want 4711 in 0", n, got)
	}
	if got := testing.AllocsPerRun(100, func() { n, _ = stockQuantity(stock) }); got != 0 || n != 4708 {
		t.Errorf("stockQuantity = %d in %v allocations, want 4708 in 0", n, got)
	}
}

// TestDecodedTextOutlivesAnUpdate: the text columns of a row decoded from
// what txn.Read returned are views of the stored image, and an Update
// replaces that image rather than writing into it (DESIGN.md §4b): the
// strings decoded before the update still read the old text, and a read
// after it decodes the new text.
func TestDecodedTextOutlivesAnUpdate(t *testing.T) {
	r := newRig(t, smallConfig(), nil)
	key := SKey(1, 7)
	old := Stock{ItemID: 7, WID: 1, Quantity: 50, Data: "original stock data"}
	for i := range old.Dists {
		old.Dists[i] = fmt.Sprintf("old-dist-info-%02d-xxxxxx", i)
	}
	read := func(p *sim.Proc) (s Stock, err error) {
		_, err = r.in.Atomically(p, func(tx *txn.Txn) error {
			b, err := r.in.Read(p, tx, TableStock, key)
			if err == nil {
				s, err = DecodeStock(b)
			}
			return err
		})
		return s, err
	}
	r.run(t, func(p *sim.Proc) error {
		if err := r.in.Open(p); err != nil {
			return err
		}
		if err := r.app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
			return err
		}
		if _, err := r.in.Atomically(p, func(tx *txn.Txn) error { return r.in.Insert(p, tx, TableStock, key, old.Encode()) }); err != nil {
			return err
		}
		before, err := read(p)
		if err != nil {
			return err
		}
		now := before
		now.Quantity, now.Data = 41, "THE NEW STOCK DATA!"
		for i := range now.Dists {
			now.Dists[i] = strings.ToUpper(now.Dists[i])
		}
		if _, err := r.in.Atomically(p, func(tx *txn.Txn) error { return r.in.Update(p, tx, TableStock, key, now.Encode()) }); err != nil {
			return err
		}
		if before != old {
			return fmt.Errorf("the row decoded before the update reads %+v after it, want %+v", before, old)
		}
		if after, err := read(p); err != nil || after != now {
			return fmt.Errorf("a read after the update decodes %+v, %v, want %+v", after, err, now)
		}
		return nil
	})
}

// FuzzRowCodecRoundTrip: for a row of every type, Decode(Encode(x)) is x,
// the two Stock-Level field readers agree with the full decode, and every
// proper prefix of an encoding is ErrBadRow — never a panic, never a row.
func FuzzRowCodecRoundTrip(f *testing.F) {
	f.Add(int64(4711), int64(3), int32(4995), "acme-w", "dist-info-24-characters!")
	f.Add(int64(-1), int64(1)<<62, int32(-1050), "", "bytes \x00 and \xff, and then some")
	f.Fuzz(func(t *testing.T, a, b int64, cents int32, s1, s2 string) {
		rows := codecRows(int(a), int(b), a^b, float64(cents)/100, s1, s2)
		for _, row := range rows {
			full := row.encode()
			if err := row.roundTrip(full); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			for n := 0; n < len(full); n++ {
				if err := row.roundTrip(full[:n]); !errors.Is(err, ErrBadRow) {
					t.Fatalf("%s cut to %d of %d bytes: %v, want ErrBadRow", row.name, n, len(full), err)
				}
			}
		}
		line, stock := rows[6].encode(), rows[8].encode()
		if got, err := orderLineItemID(line); err != nil || got != int(a) {
			t.Fatalf("orderLineItemID = %d, %v, want %d", got, err, int(a))
		}
		if got, err := stockQuantity(stock); err != nil || got != int(a)-int(b) {
			t.Fatalf("stockQuantity = %d, %v, want %d", got, err, int(a)-int(b))
		}
		if _, err := orderLineItemID(line[:39]); !errors.Is(err, ErrBadRow) {
			t.Fatalf("orderLineItemID of a row cut inside the field: %v, want ErrBadRow", err)
		}
		if _, err := stockQuantity(stock[:23]); !errors.Is(err, ErrBadRow) {
			t.Fatalf("stockQuantity of a row cut inside the field: %v, want ErrBadRow", err)
		}
	})
}

// topSource is a seeded source whose every seventh value puts Int31 on one of
// its three largest values in turn: 2147483645, the largest Intn(62) keeps,
// then 2147483646 and 2147483647, which it draws again. A seeded source alone
// gives a character that redraw about once in 2³⁰.
type topSource struct {
	rand.Source
	n int64
}

func (s *topSource) Int63() int64 {
	v := s.Source.Int63()
	if s.n++; s.n%7 == 0 {
		v = (2147483645+s.n/7%3)<<32 | v&(1<<32-1)
	}
	return v
}

// TestRowTextDrawsWhatAStringPerColumnDrew: the load's text columns, cut from
// shared chunks with Intn's character draw inlined, make the RNG calls, in
// the order, and yield the characters that a separately built string per
// column did before them — which is what keeps a seed's loaded database
// byte-identical. It holds on a seeded source and on one that makes the
// character draw redraw, and for a column longer than str's buffer.
func TestRowTextDrawsWhatAStringPerColumnDrew(t *testing.T) {
	// The per-column generators as they were at the parent commit.
	randString := func(r *rand.Rand, minLen, maxLen int) string {
		const chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
		n := minLen
		if maxLen > minLen {
			n += r.Intn(maxLen - minLen + 1)
		}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(chars[r.Intn(len(chars))])
		}
		return sb.String()
	}
	randZip := func(r *rand.Rand) string { return fmt.Sprintf("%04d11111", r.Intn(10000)) }

	for _, name := range []string{"seeded", "redrawn"} {
		src := func() rand.Source {
			if name == "seeded" {
				return rand.NewSource(42)
			}
			return &topSource{Source: rand.NewSource(42)}
		}
		old, now := rand.New(src()), rand.New(src())
		var txt rowText
		for row := 0; row < 200; row++ {
			want := []string{
				randString(old, 6, 10), randString(old, 10, 20), randString(old, 10, 20), randString(old, 2, 2), randZip(old),
				randString(old, 24, 24), randString(old, 200, 400), randString(old, 600, 700),
			}
			got := make([]string, 5, len(want))
			got[0], got[1], got[2], got[3], got[4] = txt.address(now)
			got = append(got, txt.str(now, 24, 24))
			got = append(got, txt.str(now, 200, 400))
			got = append(got, txt.str(now, 600, 700))
			if !slices.Equal(got, want) {
				t.Fatalf("%s, row %d: drew %q, want %q", name, row, got, want)
			}
			if a, b := old.Int63(), now.Int63(); a != b {
				t.Fatalf("%s, row %d: the generators have parted ways", name, row)
			}
		}
	}
}

// TestNoTextDecode: the consistency checker's way of reading an order line or
// a history row copies no text — the decoded text column is a view of the row
// image — gives the values the row was encoded from, allocates nothing, and
// is strict: a row cut anywhere, inside the text column included, is
// ErrBadRow.
func TestNoTextDecode(t *testing.T) {
	line := OrderLine{OID: 7, DID: 3, WID: 2, Number: 4, ItemID: 4711, SupplyWID: 2, DeliveryTime: 9, Quantity: 5, Amount: 12.5, DistInfo: "dist-info-24-characters!"}
	hist := History{CID: 7, CDID: 3, CWID: 2, DID: 4, WID: 1, Amount: 10, Data: "some history"}
	lb, hb := line.Encode(), hist.Encode()

	var gotLine OrderLine
	var gotHist History
	allocs := testing.AllocsPerRun(100, func() {
		gotLine, _ = DecodeOrderLine(lb)
		gotHist, _ = DecodeHistory(hb)
	})
	if gotLine != line || gotHist != hist || allocs != 0 {
		t.Errorf("decoded %+v and %+v in %v allocations, want %+v and %+v in 0", gotLine, gotHist, allocs, line, hist)
	}
	within := func(s string, b []byte) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(&b[0]))
		return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
	}
	if !within(gotLine.DistInfo, lb) || !within(gotHist.Data, hb) {
		t.Error("a decoded text column is a copy, not a view of the row image")
	}
	for n := 0; n < len(lb); n++ {
		if _, err := DecodeOrderLine(lb[:n]); !errors.Is(err, ErrBadRow) {
			t.Fatalf("order line cut to %d of %d bytes: %v, want ErrBadRow", n, len(lb), err)
		}
	}
	for n := 0; n < len(hb); n++ {
		if _, err := DecodeHistory(hb[:n]); !errors.Is(err, ErrBadRow) {
			t.Fatalf("history row cut to %d of %d bytes: %v, want ErrBadRow", n, len(hb), err)
		}
	}
}

// TestChunkCutsExactCappedBuffers: a row cut from the load's chunk is what
// Encode would have allocated — the same bytes in a buffer capped at its own
// length, so appending to one row image never reaches the next — and a row
// that does not fit what is left, or a whole chunk, starts a new allocation.
func TestChunkCutsExactCappedBuffers(t *testing.T) {
	var c chunk
	st := Stock{ItemID: 1, WID: 2, Data: "data"}
	want := st.Encode()
	a, b := st.encode(&c), st.encode(&c)
	if !slices.Equal(a, want) || !slices.Equal(b, want) || cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("rows cut from the chunk: %d/%d and %d/%d bytes, Encode gives %d/%d", len(a), cap(a), len(b), cap(b), len(want), cap(want))
	}
	if len(c.free) != chunkSize-2*len(want) {
		t.Errorf("two rows of %d bytes left %d of a %d-byte chunk", len(want), len(c.free), chunkSize)
	}
	if a = append(a, 0xEE); !slices.Equal(b, want) {
		t.Error("appending to a row image wrote into its neighbour")
	}
	left := len(c.free)
	if big := c.cut(left + 1); cap(big) != left+1 || len(c.free) != chunkSize-(left+1) {
		t.Errorf("a row larger than what is left got cap %d with %d left, want %d cut from a fresh chunk", cap(big), len(c.free), left+1)
	}
	if huge := c.cut(2 * chunkSize); cap(huge) != 2*chunkSize || len(c.free) != 0 {
		t.Errorf("a row larger than a chunk got cap %d with %d left, want an allocation of its own", cap(huge), len(c.free))
	}
}
