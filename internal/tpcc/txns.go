package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/txn"
)

// TxnType identifies one of the five TPC-C transactions.
type TxnType uint8

// The five TPC-C transaction types.
const (
	TxnNewOrder TxnType = iota + 1
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
)

var txnNames = map[TxnType]string{
	TxnNewOrder:    "New-Order",
	TxnPayment:     "Payment",
	TxnOrderStatus: "Order-Status",
	TxnDelivery:    "Delivery",
	TxnStockLevel:  "Stock-Level",
}

func (t TxnType) String() string {
	if s, ok := txnNames[t]; ok {
		return s
	}
	return fmt.Sprintf("txn(%d)", uint8(t))
}

// ErrUserAbort is the spec-required 1% New-Order rollback (unused item
// number). It is an expected outcome, not a failure.
var ErrUserAbort = errors.New("tpcc: user abort (invalid item)")

// Result reports one executed transaction.
type Result struct {
	Type TxnType
	// CommitSCN is the durable commit position (0 for the read-only
	// transactions executed without writes, and for rollbacks).
	CommitSCN redo.SCN

	orderID    int // New-Order: the allocated order id
	districtID int // New-Order: the order's district
}

// orderLineReq is one requested line of a New-Order transaction.
type orderLineReq struct {
	item   int
	supply int
	qty    int
}

// pick helpers --------------------------------------------------------

func (a *App) randomDistrict(r *rand.Rand) int { return 1 + r.Intn(Districts) }

func (a *App) randomCustomerID(r *rand.Rand) int {
	return nuRand(r, scaledA(1023, 3000, a.Cfg.CustomersPerDistrict), nuRandCID, 1, a.Cfg.CustomersPerDistrict)
}

func (a *App) randomItemID(r *rand.Rand) int {
	return nuRand(r, scaledA(8191, 100000, a.Cfg.Items), nuRandOLID, 1, a.Cfg.Items)
}

// customerByName implements the spec's 60% access-by-last-name path: pick
// the midpoint customer among those sharing the name (driver-side name
// index, like the client application's prepared lookup).
func (a *App) customerByName(r *rand.Rand, w, d int) (int, bool) {
	last := LastName(randLastNameNum(r))
	ids := a.byName[nameKey{w, d, last}]
	if len(ids) == 0 {
		return 0, false
	}
	return ids[len(ids)/2], true
}

// NewOrder executes the New-Order transaction (spec §2.4) for the given
// home warehouse.
func (a *App) NewOrder(p *sim.Proc, r *rand.Rand, w int) (Result, error) {
	in := a.In
	d := a.randomDistrict(r)
	c := a.randomCustomerID(r)
	olCnt := 5 + r.Intn(11)
	userAbort := r.Intn(100) == 0 // 1%: last item is invalid

	lines := make([]orderLineReq, olCnt)
	allLocal := 1
	for i := range lines {
		supply := w
		if a.Cfg.Warehouses > 1 && r.Intn(100) == 0 { // 1% remote
			for supply == w {
				supply = 1 + r.Intn(a.Cfg.Warehouses)
			}
			allLocal = 0
		}
		lines[i] = orderLineReq{item: a.randomItemID(r), supply: supply, qty: 1 + r.Intn(10)}
	}
	// Lock stock rows in a canonical order to avoid deadlocks between
	// concurrent New-Orders (client applications do the same).
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].supply != lines[j].supply {
			return lines[i].supply < lines[j].supply
		}
		return lines[i].item < lines[j].item
	})

	var oid int
	scn, err := in.Atomically(p, func(t *txn.Txn) (err error) {
		oid, err = a.newOrderBody(p, t, w, d, c, lines, allLocal, userAbort)
		return err
	})
	if err != nil {
		return Result{Type: TxnNewOrder}, err
	}
	// Driver-side bookkeeping after a successful commit.
	a.noQueue[DKey(w, d)] = append(a.noQueue[DKey(w, d)], oid)
	return Result{Type: TxnNewOrder, CommitSCN: scn, orderID: oid, districtID: d}, nil
}

// newOrderBody makes the New-Order's changes in t and returns the order id
// it allocated; on the spec's invalid-item path it fails with ErrUserAbort.
func (a *App) newOrderBody(p *sim.Proc, t *txn.Txn, w, d, c int, lines []orderLineReq, allLocal int, userAbort bool) (int, error) {
	in := a.In

	// Warehouse tax (read) and customer info (read).
	if _, err := in.Read(p, t, TableWarehouse, WKey(w)); err != nil {
		return 0, err
	}
	if _, err := in.Read(p, t, TableCustomer, CKey(w, d, c)); err != nil {
		return 0, err
	}
	// District: allocate the order number (select for update).
	db, err := in.ReadForUpdate(p, t, TableDistrict, DKey(w, d))
	if err != nil {
		return 0, err
	}
	dist, err := DecodeDistrict(db)
	if err != nil {
		return 0, err
	}
	oid := dist.NextOID
	dist.NextOID++
	if err := in.Update(p, t, TableDistrict, DKey(w, d), dist.Encode()); err != nil {
		return 0, err
	}

	// Order and NEW-ORDER rows.
	ord := Order{
		ID: oid, DID: d, WID: w, CID: c,
		EntryTime: int64(p.Now()), OLCnt: len(lines), AllLocal: allLocal,
	}
	if err := in.Insert(p, t, TableOrder, OKey(w, d, oid), ord.Encode()); err != nil {
		return 0, err
	}
	no := NewOrderRow{OID: oid, DID: d, WID: w}
	if err := in.Insert(p, t, TableNewOrder, OKey(w, d, oid), no.Encode()); err != nil {
		return 0, err
	}

	// Order lines: read item, update stock, insert line.
	for i, ln := range lines {
		if userAbort && i == len(lines)-1 {
			// Unused item number: the spec demands a rollback.
			return 0, ErrUserAbort
		}
		ib, err := in.Read(p, t, TableItem, IKey(ln.item))
		if err != nil {
			return 0, err
		}
		item, err := DecodeItem(ib)
		if err != nil {
			return 0, err
		}
		sb, err := in.ReadForUpdate(p, t, TableStock, SKey(ln.supply, ln.item))
		if err != nil {
			return 0, err
		}
		st, err := DecodeStock(sb)
		if err != nil {
			return 0, err
		}
		if st.Quantity >= ln.qty+10 {
			st.Quantity -= ln.qty
		} else {
			st.Quantity = st.Quantity - ln.qty + 91
		}
		st.YTD += ln.qty
		st.OrderCnt++
		if ln.supply != w {
			st.RemoteCnt++
		}
		if err := in.Update(p, t, TableStock, SKey(ln.supply, ln.item), st.Encode()); err != nil {
			return 0, err
		}
		ol := OrderLine{
			OID: oid, DID: d, WID: w, Number: i + 1,
			ItemID: ln.item, SupplyWID: ln.supply,
			Quantity: ln.qty,
			Amount:   float64(ln.qty) * item.Price,
			DistInfo: st.Dists[d-1],
		}
		if err := in.Insert(p, t, TableOrderLine, OLKey(w, d, oid, i+1), ol.Encode()); err != nil {
			return 0, err
		}
	}
	return oid, nil
}

// Payment executes the Payment transaction (spec §2.5).
func (a *App) Payment(p *sim.Proc, r *rand.Rand, w int) (Result, error) {
	in := a.In
	res := Result{Type: TxnPayment}
	d := a.randomDistrict(r)

	// 85% home customer; 15% remote district/warehouse.
	cw, cd := w, d
	if a.Cfg.Warehouses > 1 && r.Intn(100) < 15 {
		for cw == w {
			cw = 1 + r.Intn(a.Cfg.Warehouses)
		}
		cd = a.randomDistrict(r)
	}
	// 60% by last name.
	var c int
	if num, ok := a.customerByName(r, cw, cd); ok && r.Intn(100) < 60 {
		c = num
	} else {
		c = a.randomCustomerID(r)
	}
	amount := 1 + float64(r.Intn(499900))/100

	scn, err := in.Atomically(p, func(t *txn.Txn) error {
		wb, err := in.ReadForUpdate(p, t, TableWarehouse, WKey(w))
		if err != nil {
			return err
		}
		wh, err := DecodeWarehouse(wb)
		if err != nil {
			return err
		}
		wh.YTD += amount
		if err := in.Update(p, t, TableWarehouse, WKey(w), wh.Encode()); err != nil {
			return err
		}
		db, err := in.ReadForUpdate(p, t, TableDistrict, DKey(w, d))
		if err != nil {
			return err
		}
		dist, err := DecodeDistrict(db)
		if err != nil {
			return err
		}
		dist.YTD += amount
		if err := in.Update(p, t, TableDistrict, DKey(w, d), dist.Encode()); err != nil {
			return err
		}
		cb, err := in.ReadForUpdate(p, t, TableCustomer, CKey(cw, cd, c))
		if err != nil {
			return err
		}
		cust, err := DecodeCustomer(cb)
		if err != nil {
			return err
		}
		cust.Balance -= amount
		cust.YTDPayment += amount
		cust.PaymentCnt++
		if cust.Credit == "BC" {
			cust.Data = fmt.Sprintf("%d %d %d %d %d %.2f|%s", c, cd, cw, d, w, amount, cust.Data)
			if len(cust.Data) > 500 {
				cust.Data = cust.Data[:500]
			}
		}
		if err := in.Update(p, t, TableCustomer, CKey(cw, cd, c), cust.Encode()); err != nil {
			return err
		}
		a.histSeq++
		h := History{CID: c, CDID: cd, CWID: cw, DID: d, WID: w, Amount: amount, Data: wh.Name + "    " + dist.Name}
		return in.Insert(p, t, TableHistory, a.histSeq, h.Encode())
	})
	res.CommitSCN = scn
	return res, err
}

// OrderStatus executes the Order-Status read-only transaction (§2.6).
func (a *App) OrderStatus(p *sim.Proc, r *rand.Rand, w int) (Result, error) {
	in := a.In
	res := Result{Type: TxnOrderStatus}
	d := a.randomDistrict(r)
	var c int
	if num, ok := a.customerByName(r, w, d); ok && r.Intn(100) < 60 {
		c = num
	} else {
		c = a.randomCustomerID(r)
	}
	// Route a share of the read-only traffic to the stand-by replica; a
	// refused or failed snapshot falls back to the primary. The extra
	// random draw happens only with a replica attached, so unreplicated
	// runs keep their exact event sequence.
	if a.Replica != nil && r.Float64() < a.ReplicaShare {
		if a.replicaRead(p, func(read readFn) error {
			return a.orderStatusBody(p, read, w, d, c)
		}) {
			return res, nil
		}
	}
	_, err := in.Atomically(p, func(t *txn.Txn) error {
		return a.orderStatusBody(p, func(p *sim.Proc, table string, key int64) ([]byte, error) {
			return in.Read(p, t, table, key)
		}, w, d, c)
	})
	return res, err
}

// Delivery executes the Delivery transaction (§2.7): one batch delivering
// the oldest undelivered order of every district of the warehouse.
func (a *App) Delivery(p *sim.Proc, r *rand.Rand, w int) (Result, error) {
	in := a.In
	res := Result{Type: TxnDelivery}
	carrier := 1 + r.Intn(10)

	var delivered []struct {
		dkey int64
		oid  int
	}
	scn, err := in.Atomically(p, func(t *txn.Txn) error {
		for d := 1; d <= Districts; d++ {
			dk := DKey(w, d)
			queue := a.noQueue[dk]
			// Pop entries whose row vanished (orders undone by
			// recovery); deliver the first live one.
			for len(queue) > 0 {
				oid := queue[0]
				if _, err := in.ReadForUpdate(p, t, TableNewOrder, OKey(w, d, oid)); err != nil {
					if errors.Is(err, txn.ErrRowNotFound) {
						queue = queue[1:]
						a.noQueue[dk] = queue
						continue
					}
					return err
				}
				if err := in.Delete(p, t, TableNewOrder, OKey(w, d, oid)); err != nil {
					return err
				}
				ob, err := in.ReadForUpdate(p, t, TableOrder, OKey(w, d, oid))
				if err != nil {
					return err
				}
				ord, err := DecodeOrder(ob)
				if err != nil {
					return err
				}
				ord.CarrierID = carrier
				if err := in.Update(p, t, TableOrder, OKey(w, d, oid), ord.Encode()); err != nil {
					return err
				}
				total := 0.0
				for ol := 1; ol <= ord.OLCnt; ol++ {
					lb, err := in.ReadForUpdate(p, t, TableOrderLine, OLKey(w, d, oid, ol))
					if err != nil {
						return err
					}
					line, err := DecodeOrderLine(lb)
					if err != nil {
						return err
					}
					line.DeliveryTime = int64(p.Now())
					total += line.Amount
					if err := in.Update(p, t, TableOrderLine, OLKey(w, d, oid, ol), line.Encode()); err != nil {
						return err
					}
				}
				cb, err := in.ReadForUpdate(p, t, TableCustomer, CKey(w, d, ord.CID))
				if err != nil {
					return err
				}
				cust, err := DecodeCustomer(cb)
				if err != nil {
					return err
				}
				cust.Balance += total
				cust.DeliveryCnt++
				if err := in.Update(p, t, TableCustomer, CKey(w, d, ord.CID), cust.Encode()); err != nil {
					return err
				}
				delivered = append(delivered, struct {
					dkey int64
					oid  int
				}{dk, oid})
				break
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.CommitSCN = scn
	// Remove delivered orders from the driver queues only after commit.
	for _, dv := range delivered {
		q := a.noQueue[dv.dkey]
		for i, o := range q {
			if o == dv.oid {
				a.noQueue[dv.dkey] = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
	return res, nil
}

// StockLevel executes the Stock-Level read-only transaction (§2.8).
func (a *App) StockLevel(p *sim.Proc, r *rand.Rand, w int) (Result, error) {
	in := a.In
	res := Result{Type: TxnStockLevel}
	d := a.randomDistrict(r)
	threshold := 10 + r.Intn(11)

	if a.Replica != nil && r.Float64() < a.ReplicaShare {
		if a.replicaRead(p, func(read readFn) error {
			return a.stockLevelBody(p, read, w, d, threshold)
		}) {
			return res, nil
		}
	}
	_, err := in.Atomically(p, func(t *txn.Txn) error {
		return a.stockLevelBody(p, func(p *sim.Proc, table string, key int64) ([]byte, error) {
			return in.Read(p, t, table, key)
		}, w, d, threshold)
	})
	return res, err
}
