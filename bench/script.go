package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gdpr"
)

// opKind is one GDPR query shape of §3.3 / Table 2a.
type opKind uint8

const (
	opCreate opKind = iota
	opReadDataByKey
	opReadDataByUsr
	opReadDataByPur
	opReadDataByObj
	opReadDataByDec
	opReadMetaByKey
	opReadMetaByUsr
	opUpdateDataByKey
	opUpdateMetaByKey
	opUpdateMetaByPur
	opUpdateMetaByUsr
	opUpdateMetaByShr
	opDeleteByKey
	opDeleteByPur
	opDeleteByTTL
	opDeleteByUsr
	opGetLogs
	opVerifyDeletion
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"create-record", "read-data-by-key", "read-data-by-usr", "read-data-by-pur",
	"read-data-by-obj", "read-data-by-dec", "read-metadata-by-key", "read-metadata-by-usr",
	"update-data-by-key", "update-metadata-by-key", "update-metadata-by-pur",
	"update-metadata-by-usr", "update-metadata-by-shr", "delete-record-by-key",
	"delete-record-by-pur", "delete-record-by-ttl", "delete-record-by-usr",
	"get-system-logs", "verify-deletion",
}

// opClass splits latencies the way a user of the store sees them: by-key
// operations, and by-attribute ones (plus GET-SYSTEM-LOGS).
type opClass uint8

const (
	classPoint opClass = iota
	classSelector
	numClasses
)

var classNames = [numClasses]string{"point", "selector"}

func (k opKind) class() opClass {
	switch k {
	case opCreate, opReadDataByKey, opReadMetaByKey, opUpdateDataByKey,
		opUpdateMetaByKey, opDeleteByKey, opVerifyDeletion:
		return classPoint
	}
	return classSelector
}

// attr is the metadata attribute the op's selector matches.
func (k opKind) attr() gdpr.Attribute {
	switch k {
	case opReadDataByUsr, opReadMetaByUsr, opUpdateMetaByUsr, opDeleteByUsr:
		return gdpr.AttrUser
	case opReadDataByPur, opUpdateMetaByPur, opDeleteByPur:
		return gdpr.AttrPurpose
	case opReadDataByObj:
		return gdpr.AttrObjection
	case opReadDataByDec:
		return gdpr.AttrDecision
	case opUpdateMetaByShr:
		return gdpr.AttrSharing
	case opDeleteByTTL:
		return gdpr.AttrTTL
	}
	return gdpr.AttrKey
}

// op is one scripted operation. Everything the call needs is either in
// the struct or one index away in tables, so executing it formats nothing,
// draws no random number and allocates nothing.
type op struct {
	kind  opKind
	actor int32  // tables.actors
	arg   int32  // per-kind table row: creates, deltas, keysets or windows
	want  int32  // count the store must report; -1 = not checked
	value string // selector value (key, user, purpose, ...)
	data  string // update-data payload
}

func (o *op) selector() gdpr.Selector {
	return gdpr.Selector{Attr: o.kind.attr(), Value: o.value}
}

// logWindow is one GET-SYSTEM-LOGS range. Set-up fills the bounds from the
// load phase's own audit entries so each window holds exactly want
// historical entries however fast the run goes.
type logWindow struct {
	from, to time.Time
	want     int32
}

// tables holds the operands scripts index into.
type tables struct {
	actors  []acl.Actor
	creates []gdpr.Record
	deltas  []gdpr.Delta
	keysets [][]string
	windows []logWindow
}

// script is the full input of one workload run: the dataset to load and
// one op list per client.
type script struct {
	ds  *dataset
	tab *tables
	ops [clients][]op
	// settleFrom is where each op list's settle segment starts: rewrites of
	// one record's data, there for workloads whose store compacts its log
	// (see prepared.settle).
	settleFrom int
	sha256     string
}

type mixEntry struct {
	kind   opKind
	weight float64
}

// logWindowSlots is how many distinct GET-SYSTEM-LOGS windows a script
// rotates through.
const logWindowSlots = 16

// newScript generates the dataset and both clients' op lists from seed:
// opsPerClient ops of the workload's mix each, then the settle segment.
func newScript(w *workload, seed int64, records, opsPerClient int) *script {
	ds := newDataset(seed, records, w.ttlShare)
	tab := &tables{
		keysets: ds.ghosts,
		windows: make([]logWindow, logWindowSlots),
	}
	s := &script{ds: ds, tab: tab, settleFrom: opsPerClient}
	settleOps := 0
	if w.compacted != "" {
		settleOps = records / 2 // more log than any compaction trigger waits for
	}
	actorIdx := map[acl.Actor]int32{}
	actor := func(a acl.Actor) int32 {
		if i, ok := actorIdx[a]; ok {
			return i
		}
		tab.actors = append(tab.actors, a)
		actorIdx[a] = int32(len(tab.actors) - 1)
		return actorIdx[a]
	}
	kinds := make([]opKind, len(w.mix))
	weights := make([]float64, len(w.mix))
	for i, e := range w.mix {
		kinds[i], weights[i] = e.kind, e.weight
	}
	aclOn := w.compliance().AccessControl
	for c := 0; c < clients; c++ {
		r := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
		m := newModel(ds, c, aclOn)
		owned := ds.owned[c]
		var keyGen dist.Generator = dist.NewUniform(r, int64(len(owned)))
		if w.zipf {
			keyGen = dist.NewScrambledZipfian(r, int64(len(owned)))
		}
		chooser := dist.NewWeighted(r, kinds, weights)
		pick := func(pool []string) string { return pool[r.Intn(len(pool))] }
		// Ops target records the script has left in place so far: live holds
		// the candidates, weeded as draws land on erased ones. A skewed mix
		// that erases by key would otherwise erase its hot keys first and
		// spend the rest of the run asking for records that are gone (four
		// by-key ops in five did, on kv-rights).
		live := slices.Clone(owned)
		pickLive := func() *gdpr.Record {
			for len(live) > 1 {
				i := int(keyGen.Next()) % len(live)
				if rec := &ds.recs[live[i]]; m.recs[rec.Key].live {
					return rec
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			return &ds.recs[live[0]]
		}
		// Erasures by key are spaced so that half of the client's records
		// outlive the script. The others repeat an earlier erasure: a request
		// the store must still check, log and answer.
		var erased []*gdpr.Record
		erasures, sparing := 0, 1.0
		if share := w.share(opDeleteByKey); share > 0 {
			sparing = min(1, float64(len(owned))/2/(float64(opsPerClient)*share))
		}
		ops := make([]op, opsPerClient+settleOps)
		var settleRec *gdpr.Record
		for i := range ops {
			o := op{kind: opUpdateDataByKey, arg: -1}
			var rec *gdpr.Record
			switch {
			case i >= opsPerClient:
				// Settle: keep rewriting one record the mix left in place,
				// which grows the log and not the data.
				if settleRec == nil {
					settleRec = pickLive()
				}
				rec = settleRec
			default:
				o.kind = chooser.Next()
				rec = pickLive()
				if o.kind == opDeleteByKey {
					erasures++
					if int(float64(erasures)*sparing) > int(float64(erasures-1)*sparing) || len(erased) == 0 {
						erased = append(erased, rec)
					} else {
						rec = erased[r.Intn(len(erased))]
					}
				}
			}
			owner := acl.Actor{Role: acl.Customer, ID: rec.Meta.User}
			if w.stack == stackNet {
				// remote.Client pools connections per role and opens the
				// controller's on Dial. With access control off the role
				// decides nothing else, so the network workload speaks as
				// the controller throughout and holds two connections, not
				// a third that idles after the load.
				owner = core.ControllerActor()
			}
			switch o.kind {
			case opCreate:
				o.actor = actor(core.ControllerActor())
				nr := rec.Clone() // shape template, like core's controller workload
				nr.Key = fmt.Sprintf("n%d-%07d", c, i)
				nr.Data = pick(ds.payloads)
				nr.Meta.User = pick(ds.users[c])
				tab.creates = append(tab.creates, nr)
				o.arg = int32(len(tab.creates) - 1)
				o.value = nr.Key
			case opReadDataByKey:
				o.value = rec.Key
				if w.stack == stackNet {
					o.actor = actor(owner)
				} else {
					// The processor reads under the record's first load-time purpose.
					o.actor = actor(acl.Actor{Role: acl.Processor, ID: "processor-1", Purpose: rec.Meta.Purposes[0]})
				}
			case opReadDataByUsr:
				o.actor, o.value = actor(owner), rec.Meta.User
			case opReadDataByPur, opReadDataByObj:
				o.value = pick(ds.purposes[c])
				o.actor = actor(acl.Actor{Role: acl.Processor, ID: "processor-1", Purpose: o.value})
			case opReadDataByDec:
				o.value = pick(ds.decisions[c])
				o.actor = actor(acl.Actor{Role: acl.Processor, ID: "processor-1", Purpose: pick(ds.purposes[c])})
			case opReadMetaByKey:
				o.actor, o.value = actor(owner), rec.Key
			case opReadMetaByUsr:
				o.actor, o.value = actor(core.RegulatorActor()), rec.Meta.User
			case opUpdateDataByKey:
				o.actor, o.value, o.data = actor(owner), rec.Key, pick(ds.payloads)
			case opUpdateMetaByKey:
				// The customer flips an objection (G 18.1 / G 7.3).
				o.actor, o.value = actor(owner), rec.Key
				o.arg = s.delta(gdpr.Delta{Attr: gdpr.AttrObjection, Op: gdpr.DeltaAdd, Values: []string{pick(ds.purposes[c])}})
			case opUpdateMetaByPur:
				// The controller extends retention for a purpose (G 13.3).
				o.actor, o.value = actor(core.ControllerActor()), pick(ds.purposes[c])
				o.arg = s.delta(gdpr.Delta{Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet, Expiry: longTTL().Add(time.Duration(i+1) * time.Second)})
			case opUpdateMetaByUsr:
				// The controller records a new third-party share for a user.
				o.actor, o.value = actor(core.ControllerActor()), rec.Meta.User
				o.arg = s.delta(gdpr.Delta{Attr: gdpr.AttrSharing, Op: gdpr.DeltaAdd, Values: []string{pick(ds.shares[c])}})
			case opUpdateMetaByShr:
				// The controller retires a third-party share.
				o.actor, o.value = actor(core.ControllerActor()), pick(ds.shares[c])
				o.arg = s.delta(gdpr.Delta{Attr: gdpr.AttrSharing, Op: gdpr.DeltaRemove, Values: []string{o.value}})
			case opDeleteByKey:
				o.actor, o.value = actor(owner), rec.Key
			case opDeleteByPur:
				o.actor, o.value = actor(core.ControllerActor()), pick(ds.purposes[c])
			case opDeleteByUsr:
				o.actor, o.value = actor(core.ControllerActor()), rec.Meta.User
			case opDeleteByTTL:
				o.actor = actor(core.ControllerActor())
			case opGetLogs:
				o.actor, o.arg = actor(core.RegulatorActor()), int32(r.Intn(logWindowSlots))
			case opVerifyDeletion:
				o.actor, o.arg = actor(core.RegulatorActor()), int32(r.Intn(len(tab.keysets)))
			}
			if o.kind != opGetLogs { // window counts are only known after set-up
				o.want = m.apply(&o, tab)
			}
			ops[i] = o
		}
		s.ops[c] = ops
	}
	s.sha256 = s.hash()
	return s
}

func (s *script) delta(d gdpr.Delta) int32 {
	s.tab.deltas = append(s.tab.deltas, d)
	return int32(len(s.tab.deltas) - 1)
}

// hash digests everything the program will receive — the records to load
// and every op with its operands — so two runs can prove they fed the
// store byte-identical inputs.
func (s *script) hash() string {
	h := sha256.New()
	str := func(v string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
		h.Write(n[:])
		h.Write([]byte(v))
	}
	num := func(v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	for _, rec := range s.ds.recs {
		str(gdpr.Encode(rec))
	}
	for c := range s.ops {
		for i := range s.ops[c] {
			o := &s.ops[c][i]
			num(int64(o.kind))
			a := s.tab.actors[o.actor]
			num(int64(a.Role))
			str(a.ID)
			str(a.Purpose)
			str(o.value)
			str(o.data)
			num(int64(o.want))
			switch o.kind {
			case opCreate:
				str(gdpr.Encode(s.tab.creates[o.arg]))
			case opUpdateMetaByKey, opUpdateMetaByPur, opUpdateMetaByUsr, opUpdateMetaByShr:
				d := s.tab.deltas[o.arg]
				str(string(d.Attr))
				num(int64(d.Op))
				for _, v := range d.Values {
					str(v)
				}
				num(d.Expiry.Unix())
			case opVerifyDeletion:
				for _, k := range s.tab.keysets[o.arg] {
					str(k)
				}
			case opGetLogs:
				num(int64(o.arg))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
