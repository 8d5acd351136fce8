package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/gdpr"
	"repro/internal/relstore"
	"repro/internal/wal"
)

// RecordsTable is the personal-data table name.
const RecordsTable = "personal_records"

// TTLDaemonPeriod is the paper's retrofit period ("currently set to 1 sec").
const TTLDaemonPeriod = time.Second

// recordsSchema maps the §4.2.1 record format onto columns.
func recordsSchema() relstore.Schema {
	return relstore.Schema{
		Name: RecordsTable,
		Columns: []relstore.Column{
			{Name: "key", Type: relstore.TypeText},
			{Name: "data", Type: relstore.TypeText},
			{Name: "pur", Type: relstore.TypeTextList},
			{Name: "ttl", Type: relstore.TypeTime},
			{Name: "usr", Type: relstore.TypeText},
			{Name: "obj", Type: relstore.TypeTextList},
			{Name: "dec", Type: relstore.TypeTextList},
			{Name: "shr", Type: relstore.TypeTextList},
			{Name: "src", Type: relstore.TypeText},
		},
		PrimaryKey: "key",
	}
}

// metadataColumns are the columns that get secondary indexes under
// MetadataIndexing — all seven attributes, matching Table 3's "secondary
// indices for all the metadata fields".
var metadataColumns = []string{"pur", "ttl", "usr", "obj", "dec", "shr", "src"}

func rowFromRecord(r gdpr.Record) relstore.Row {
	return relstore.Row{
		r.Key, r.Data, r.Meta.Purposes, r.Meta.Expiry, r.Meta.User,
		r.Meta.Objections, r.Meta.Decisions, r.Meta.SharedWith, r.Meta.Source,
	}
}

func recordFromRow(row relstore.Row) gdpr.Record {
	listAt := func(i int) []string {
		l, _ := row[i].([]string)
		return l
	}
	return gdpr.Record{
		Key:  row[0].(string),
		Data: row[1].(string),
		Meta: gdpr.Metadata{
			Purposes:   listAt(2),
			Expiry:     row[3].(time.Time),
			User:       row[4].(string),
			Objections: listAt(5),
			Decisions:  listAt(6),
			SharedWith: listAt(7),
			Source:     row[8].(string),
		},
	}
}

// predicateFor translates a GDPR selector into a relational predicate.
func predicateFor(sel gdpr.Selector) (relstore.Predicate, error) {
	switch sel.Attr {
	case gdpr.AttrUser:
		return relstore.Eq("usr", sel.Value), nil
	case gdpr.AttrSource:
		return relstore.Eq("src", sel.Value), nil
	case gdpr.AttrPurpose:
		return relstore.Contains("pur", sel.Value), nil
	case gdpr.AttrObjection:
		if sel.Negate {
			return relstore.NotContains("obj", sel.Value), nil
		}
		return relstore.Contains("obj", sel.Value), nil
	case gdpr.AttrDecision:
		return relstore.Contains("dec", sel.Value), nil
	case gdpr.AttrSharing:
		return relstore.Contains("shr", sel.Value), nil
	case gdpr.AttrTTL:
		return relstore.Le("ttl", sel.AsOf), nil
	default:
		return relstore.Predicate{}, fmt.Errorf("core: selector %v has no relational predicate", sel)
	}
}

// relEngine is the storage adapter of the PostgreSQL-model store (§5.2):
// it adapts relstore.DB to the Engine contract and holds no compliance
// state — rows in, records out, with the PostgreSQL cost profile. Records
// live in one wide table with a column per GDPR metadata attribute;
// metadata queries become predicates that the planner serves from
// secondary indexes when MetadataIndexing is on (Figure 5c) and sequential
// scans otherwise (Figure 5b). Compliance features map to:
//
//	EncryptAtRest    → WAL and audit log encrypted via securefs (LUKS)
//	EncryptInTransit → per-op transit.Pipe record layer (SSL verify-CA)
//	Logging          → csvlog-style statement+response logging
//	TimelyDeletion   → TTL daemon at a 1-second period
//	AccessControl    → acl checks in the middleware
//	MetadataIndexing → secondary indexes on every metadata column
type relEngine struct {
	db *relstore.DB
}

// openRelEngine builds one relstore (WAL at dir/postgres.wal, indexes, TTL
// daemon) per the resolved o. statements receives csvlog-style statement
// logging when Logging is on — one shared log for every shard.
func openRelEngine(o Options, dir string, statements *audit.Log) (Engine, error) {
	comp := o.Compliance
	relCfg := relstore.Config{
		Clock:           o.Clock,
		CheckpointBytes: o.Tuning.WALCheckpointBytes,
	}
	if comp.Logging {
		if statements == nil {
			return nil, fmt.Errorf("core: postgres statement logging requires an audit log")
		}
		relCfg.Audit = statements
		relCfg.LogStatements = true
	}
	if dir != "" {
		relCfg.WALPath = filepath.Join(dir, "postgres.wal")
		relCfg.WALSync = wal.SyncBatched
		if o.SynchronousCommit {
			relCfg.WALSync = wal.SyncOnCommit
		}
		if comp.EncryptAtRest {
			relCfg.EncryptionKey = o.key("wal")
		}
	}
	db, err := relstore.Open(relCfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (Engine, error) {
		db.Close()
		return nil, err
	}
	if err := db.CreateTable(recordsSchema()); err != nil {
		return fail(err)
	}
	if err := db.Recover(); err != nil {
		return fail(err)
	}
	if comp.MetadataIndexing {
		for _, col := range metadataColumns {
			if err := db.CreateIndex(RecordsTable, col); err != nil {
				return fail(err)
			}
		}
	}
	if comp.TimelyDeletion && !o.DisableDaemons {
		if err := db.StartTTLDaemon(RecordsTable, "ttl", TTLDaemonPeriod); err != nil {
			return fail(err)
		}
	}
	return &relEngine{db: db}, nil
}

// Put implements Engine (INSERT semantics: duplicate keys error).
func (e *relEngine) Put(rec gdpr.Record) error {
	return e.db.Insert(RecordsTable, rowFromRecord(rec))
}

// PutBatch implements BatchEngine: one table-lock acquisition, one
// snapshot publish, one group-commit wait per batch.
func (e *relEngine) PutBatch(recs []gdpr.Record) error {
	rows := make([]relstore.Row, len(recs))
	for i, rec := range recs {
		rows[i] = rowFromRecord(rec)
	}
	return e.db.InsertBatch(RecordsTable, rows)
}

// Get implements Engine.
func (e *relEngine) Get(key string) (gdpr.Record, bool, error) {
	row, ok, err := e.db.Get(RecordsTable, key)
	if err != nil || !ok {
		return gdpr.Record{}, false, err
	}
	return recordFromRow(row), true, nil
}

// Select implements Engine: the cursor's one whole chunk.
func (e *relEngine) Select(sel gdpr.Selector) ([]gdpr.Record, error) {
	return Collect(e.SelectStream(sel, WholeChunk))
}

// SelectKeys implements Engine: the planner's key-only projection.
func (e *relEngine) SelectKeys(sel gdpr.Selector) ([]string, error) {
	if sel.Attr == gdpr.AttrKey {
		_, ok, err := e.db.Get(RecordsTable, sel.Value)
		if err != nil || !ok {
			return nil, err
		}
		return []string{sel.Value}, nil
	}
	pred, err := predicateFor(sel)
	if err != nil {
		return nil, err
	}
	return e.db.SelectKeys(RecordsTable, pred)
}

// Update implements Engine.
func (e *relEngine) Update(key string, mutate func(gdpr.Record) (gdpr.Record, error)) (bool, error) {
	return e.db.UpdateFunc(RecordsTable, key, func(row relstore.Row) (relstore.Row, error) {
		out, err := mutate(recordFromRow(row))
		if err != nil {
			return nil, err
		}
		return rowFromRecord(out), nil
	})
}

// Delete implements Engine.
func (e *relEngine) Delete(keys []string) (int, error) {
	n := 0
	for _, key := range keys {
		existed, err := e.db.Delete(RecordsTable, key)
		if err != nil {
			return n, err
		}
		if existed {
			n++
		}
	}
	return n, nil
}

// Exists implements Engine.
func (e *relEngine) Exists(key string) (bool, error) {
	_, ok, err := e.db.Get(RecordsTable, key)
	return ok, err
}

// Features implements Engine.
func (e *relEngine) Features() map[string]string { return e.db.Features() }

// SpaceUsage implements Engine: total bytes are heap plus secondary
// indexes (what "database size" means for the relational engine);
// personal bytes are the Data column alone.
func (e *relEngine) SpaceUsage() (SpaceUsage, error) {
	rows, err := e.db.SelectChunk(RecordsTable, relstore.All(), "", relstore.NoLimit)
	if err != nil {
		return SpaceUsage{}, err
	}
	var personal int64
	for _, row := range rows {
		personal += int64(len(row[1].(string)))
	}
	heap, index, err := e.db.Sizes(RecordsTable)
	if err != nil {
		return SpaceUsage{}, err
	}
	return SpaceUsage{PersonalBytes: personal, TotalBytes: heap + index}, nil
}

// Close implements Engine.
func (e *relEngine) Close() error { return e.db.Close() }

// DB exposes the relstore under the adapter to harnesses that shape it
// beyond what Options spells (a partial index set); they reach it by
// asserting on the Engine NewPostgresEngine returns.
func (e *relEngine) DB() *relstore.DB { return e.db }

var _ BatchEngine = (*relEngine)(nil)
