package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/acl"
	"repro/internal/gdpr"
)

// clients is the number of closed-loop client goroutines every workload
// runs (the box has two cores). The dataset is partitioned by it: client c
// owns the users with index ≡ c (mod clients), their records, and the
// purposes, shares and decisions those records carry, so the two clients'
// scripts never touch the same record and each one's effects are a
// deterministic sequential program the oracle can replay.
const clients = 2

const (
	dataSize       = 10 // Table 3's default payload size
	recordsPerUser = 10
	// longTTL is the retention horizon of ordinary records. It is a fixed
	// whole-second instant far in the future so scripts do not depend on
	// when they were generated (the record codec keeps TTLs to the second).
	longTTLUnix = 4102444800 // 2100-01-01T00:00:00Z
)

// dataset is everything the load phase inserts, generated from the seed
// before any clock starts.
type dataset struct {
	recs []gdpr.Record
	// owned[c] lists the indexes of client c's ordinary records — the ones
	// scripts may target.
	owned [clients][]int32
	// nStable splits recs: recs[:nStable] are ordinary records,
	// recs[nStable:] the short-TTL ones. Set-up stamps those deadlines
	// across the timed window so the expiry loop works throughout. They
	// carry a purpose and users nothing selects by, so the only things
	// that ever touch them are the expiry machinery and DELETE-BY-TTL, and
	// the oracle expects every one of them to be gone afterwards.
	nStable int
	// Attribute-value pools, split by owning client.
	users     [clients][]string
	purposes  [clients][]string
	shares    [clients][]string
	decisions [clients][]string
	// payloads is the pool update-data ops draw new personal data from.
	payloads []string
	ghosts   [][]string // key sets that never existed, for verify-deletion
}

func longTTL() time.Time { return time.Unix(longTTLUnix, 0) }

func (ds *dataset) stable() []gdpr.Record   { return ds.recs[:ds.nStable] }
func (ds *dataset) volatile() []gdpr.Record { return ds.recs[ds.nStable:] }

func digits(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.Intn(10))
	}
	return string(b)
}

// pool renders n attribute values owned by client c.
func pool(prefix string, c, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d-%04d", prefix, c, i)
	}
	return out
}

// newDataset generates records personal-data records, ttlShare of them
// volatile. Pool sizes follow core.Config.WithDefaults so each purpose,
// share or decision maps to a handful of records, like each user does.
func newDataset(seed int64, records int, ttlShare float64) *dataset {
	r := rand.New(rand.NewSource(seed))
	ds := &dataset{recs: make([]gdpr.Record, records)}
	users := max(clients, records/recordsPerUser)
	for c := 0; c < clients; c++ {
		ds.users[c] = pool("u", c, max(1, users/clients))
		ds.purposes[c] = pool("p", c, max(8, records/15/clients))
		ds.shares[c] = pool("s", c, max(4, records/40/clients))
		ds.decisions[c] = pool("d", c, max(2, records/40/clients))
	}
	ds.nStable = records - int(float64(records)*ttlShare)
	for i := range ds.recs {
		rec := gdpr.Record{Key: fmt.Sprintf("r%07d", i), Data: digits(r, dataSize)}
		if i >= ds.nStable {
			rec.Meta = gdpr.Metadata{
				User:     fmt.Sprintf("t%06d", i),
				Purposes: []string{"expiring"},
				Source:   "src0",
				Expiry:   longTTL(), // restamped at set-up
			}
			ds.recs[i] = rec
			continue
		}
		u := i % users
		c := u % clients
		pur := ds.purposes[c]
		p1 := r.Intn(len(pur))
		meta := gdpr.Metadata{
			User:     ds.users[c][(u/clients)%len(ds.users[c])],
			Source:   fmt.Sprintf("src%d", r.Intn(4)),
			Purposes: []string{pur[p1]},
			Expiry:   longTTL(),
		}
		if r.Float64() < 0.5 {
			meta.Purposes = append(meta.Purposes, pur[(p1+1+r.Intn(len(pur)-1))%len(pur)])
		}
		if r.Float64() < 0.10 {
			meta.Objections = []string{meta.Purposes[0]}
		}
		if r.Float64() < 0.10 {
			meta.Decisions = []string{ds.decisions[c][r.Intn(len(ds.decisions[c]))]}
		}
		if r.Float64() < 0.20 {
			meta.SharedWith = []string{ds.shares[c][r.Intn(len(ds.shares[c]))]}
		}
		rec.Meta = meta
		ds.recs[i] = rec
		ds.owned[c] = append(ds.owned[c], int32(i))
	}
	ds.payloads = make([]string, 1024)
	for i := range ds.payloads {
		ds.payloads[i] = digits(r, dataSize)
	}
	ds.ghosts = make([][]string, 256)
	for i := range ds.ghosts {
		ds.ghosts[i] = make([]string, 4)
		for j := range ds.ghosts[i] {
			ds.ghosts[i][j] = fmt.Sprintf("gone-%07d", r.Intn(10_000_000))
		}
	}
	return ds
}

// ---------------------------------------------------------------------------
// Reference model

// mrec is one record's state in the reference model.
type mrec struct {
	rec  gdpr.Record
	live bool
}

// model is the oracle's picture of one client's partition: every record
// the client owns or creates, with inverted lists for the attribute
// selectors. Lists are append-only and may hold stale entries; readers
// re-check liveness and the match.
type model struct {
	acl   bool
	recs  map[string]*mrec
	byUsr map[string][]*mrec
	byPur map[string][]*mrec
	byShr map[string][]*mrec
	byDec map[string][]*mrec
	byObj map[string][]*mrec
	// dirty logs the key of every record apply created, changed or erased,
	// in order (repeats included): where the oracle looks first.
	dirty []string
}

func newModel(ds *dataset, client int, aclOn bool) *model {
	m := &model{
		acl:   aclOn,
		recs:  make(map[string]*mrec, len(ds.owned[client])),
		byUsr: map[string][]*mrec{},
		byPur: map[string][]*mrec{},
		byShr: map[string][]*mrec{},
		byDec: map[string][]*mrec{},
		byObj: map[string][]*mrec{},
	}
	for _, i := range ds.owned[client] {
		m.insert(ds.recs[i].Clone())
	}
	return m
}

func (m *model) insert(rec gdpr.Record) {
	mr := &mrec{rec: rec, live: true}
	m.recs[rec.Key] = mr
	m.byUsr[rec.Meta.User] = append(m.byUsr[rec.Meta.User], mr)
	for _, v := range rec.Meta.Purposes {
		m.byPur[v] = append(m.byPur[v], mr)
	}
	for _, v := range rec.Meta.SharedWith {
		m.byShr[v] = append(m.byShr[v], mr)
	}
	for _, v := range rec.Meta.Decisions {
		m.byDec[v] = append(m.byDec[v], mr)
	}
	for _, v := range rec.Meta.Objections {
		m.byObj[v] = append(m.byObj[v], mr)
	}
}

// candidates returns the records that may match sel (a superset).
func (m *model) candidates(sel gdpr.Selector) []*mrec {
	switch sel.Attr {
	case gdpr.AttrKey:
		if mr := m.recs[sel.Value]; mr != nil {
			return []*mrec{mr}
		}
		return nil
	case gdpr.AttrUser:
		return m.byUsr[sel.Value]
	case gdpr.AttrPurpose:
		return m.byPur[sel.Value]
	case gdpr.AttrSharing:
		return m.byShr[sel.Value]
	case gdpr.AttrDecision:
		return m.byDec[sel.Value]
	case gdpr.AttrObjection:
		return m.byObj[sel.Value]
	}
	return nil
}

// matching returns the live records matching sel that actor a may apply
// verb to, each once.
func (m *model) matching(a acl.Actor, verb acl.Verb, sel gdpr.Selector, delta *gdpr.Delta) []*mrec {
	var out []*mrec
	seen := map[*mrec]bool{}
	for _, mr := range m.candidates(sel) {
		if !mr.live || seen[mr] || !sel.Matches(mr.rec) {
			continue
		}
		seen[mr] = true
		if m.acl && acl.CheckRecord(a, verb, mr.rec, delta) != nil {
			continue
		}
		out = append(out, mr)
	}
	return out
}

// apply executes o against the model and returns the count the store
// must report for it (-1 when the count depends on wall-clock timing).
func (m *model) apply(o *op, t *tables) int32 {
	a := t.actors[o.actor]
	switch o.kind {
	case opCreate:
		m.insert(t.creates[o.arg].Clone())
		m.dirty = append(m.dirty, o.value)
		return 1
	case opReadDataByKey, opReadDataByUsr, opReadDataByPur, opReadDataByObj, opReadDataByDec:
		return int32(len(m.matching(a, acl.VerbReadData, o.selector(), nil)))
	case opReadMetaByKey, opReadMetaByUsr:
		return int32(len(m.matching(a, acl.VerbReadMetadata, o.selector(), nil)))
	case opUpdateDataByKey:
		hit := m.matching(a, acl.VerbUpdateData, o.selector(), nil)
		for _, mr := range hit {
			mr.rec.Data = o.data
			m.dirty = append(m.dirty, mr.rec.Key)
		}
		return int32(len(hit))
	case opUpdateMetaByKey, opUpdateMetaByPur, opUpdateMetaByUsr, opUpdateMetaByShr:
		delta := t.deltas[o.arg]
		hit := m.matching(a, acl.VerbUpdateMetadata, o.selector(), &delta)
		for _, mr := range hit {
			if err := delta.Apply(&mr.rec.Meta); err != nil {
				panic(err) // scripts only hold well-typed deltas
			}
			m.dirty = append(m.dirty, mr.rec.Key)
			if delta.Op == gdpr.DeltaAdd {
				for _, v := range delta.Values {
					switch delta.Attr {
					case gdpr.AttrSharing:
						m.byShr[v] = append(m.byShr[v], mr)
					case gdpr.AttrObjection:
						m.byObj[v] = append(m.byObj[v], mr)
					}
				}
			}
		}
		return int32(len(hit))
	case opDeleteByKey, opDeleteByPur, opDeleteByUsr:
		hit := m.matching(a, acl.VerbDelete, o.selector(), nil)
		for _, mr := range hit {
			mr.live = false
			m.dirty = append(m.dirty, mr.rec.Key)
		}
		return int32(len(hit))
	case opDeleteByTTL:
		return -1 // only volatile records expire; how many are due is a matter of timing
	case opGetLogs:
		return t.windows[o.arg].want
	case opVerifyDeletion:
		n := int32(0)
		for _, k := range t.keysets[o.arg] {
			if mr := m.recs[k]; mr != nil && mr.live {
				n++
			}
		}
		return n
	}
	panic(fmt.Sprintf("bench: model has no rule for op kind %d", o.kind))
}
