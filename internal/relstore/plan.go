package relstore

import (
	"fmt"
	"sort"
	"time"
)

// PredOp is a predicate operator.
type PredOp int

// Predicate operators.
const (
	// OpAll matches every row.
	OpAll PredOp = iota
	// OpEq matches rows whose text column equals Text.
	OpEq
	// OpContains matches rows whose list column contains Text.
	OpContains
	// OpNotContains matches rows whose list column does NOT contain Text.
	// No index can serve it; it always sequential-scans.
	OpNotContains
	// OpLe matches rows whose time column is non-zero and <= Time.
	OpLe
)

// Predicate is a single-column filter — the query shapes GDPR metadata
// operations need (§3.3 is dominated by attribute-equality and TTL-cutoff
// selections).
type Predicate struct {
	Op   PredOp
	Col  string
	Text string
	Time time.Time
}

// All matches every row.
func All() Predicate { return Predicate{Op: OpAll} }

// Eq matches rows with col == v (text columns).
func Eq(col, v string) Predicate { return Predicate{Op: OpEq, Col: col, Text: v} }

// Contains matches rows whose list column contains v.
func Contains(col, v string) Predicate { return Predicate{Op: OpContains, Col: col, Text: v} }

// NotContains matches rows whose list column does not contain v.
func NotContains(col, v string) Predicate { return Predicate{Op: OpNotContains, Col: col, Text: v} }

// Le matches rows whose time column is set and <= t.
func Le(col string, t time.Time) Predicate { return Predicate{Op: OpLe, Col: col, Time: t} }

// String renders the predicate for logs.
func (p Predicate) String() string {
	switch p.Op {
	case OpAll:
		return "true"
	case OpEq:
		return fmt.Sprintf("%s = %q", p.Col, p.Text)
	case OpContains:
		return fmt.Sprintf("%s @> %q", p.Col, p.Text)
	case OpNotContains:
		return fmt.Sprintf("NOT %s @> %q", p.Col, p.Text)
	case OpLe:
		return fmt.Sprintf("%s <= %d", p.Col, p.Time.Unix())
	default:
		return fmt.Sprintf("PredOp(%d)", int(p.Op))
	}
}

// Plan describes how a predicate will be executed.
type Plan struct {
	// Access is "index" or "seqscan".
	Access string
	// Index is the column whose index is used (empty for seqscan).
	Index string
}

// Explain reports the access path SelectChunk would use for pred on table.
func (db *DB) Explain(table string, pred Predicate) (Plan, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return Plan{}, err
	}
	v := t.reader()
	return v.plan(pred), nil
}

func (v *view) plan(pred Predicate) Plan {
	switch pred.Op {
	case OpEq, OpContains, OpLe:
		if _, ok := v.indexes[pred.Col]; ok {
			return Plan{Access: "index", Index: pred.Col}
		}
	}
	return Plan{Access: "seqscan"}
}

// matches evaluates pred against a row (seq-scan filter).
func (v *view) matches(pred Predicate, row Row) (bool, error) {
	if pred.Op == OpAll {
		return true, nil
	}
	ci := v.schema.ColIndex(pred.Col)
	if ci < 0 {
		return false, fmt.Errorf("relstore: table %s has no column %q", v.schema.Name, pred.Col)
	}
	col := v.schema.Columns[ci]
	switch pred.Op {
	case OpEq:
		if col.Type != TypeText {
			return false, fmt.Errorf("relstore: Eq on non-text column %q", pred.Col)
		}
		return row[ci].(string) == pred.Text, nil
	case OpContains, OpNotContains:
		if col.Type != TypeTextList {
			return false, fmt.Errorf("relstore: Contains on non-list column %q", pred.Col)
		}
		l, _ := row[ci].([]string)
		found := false
		for _, v := range l {
			if v == pred.Text {
				found = true
				break
			}
		}
		if pred.Op == OpNotContains {
			return !found, nil
		}
		return found, nil
	case OpLe:
		if col.Type != TypeTime {
			return false, fmt.Errorf("relstore: Le on non-time column %q", pred.Col)
		}
		tv := row[ci].(time.Time)
		return !tv.IsZero() && !tv.After(pred.Time), nil
	default:
		return false, fmt.Errorf("relstore: unknown predicate op %d", int(pred.Op))
	}
}

// checkPredicate validates the predicate column eagerly so bad queries
// fail loudly on every access path.
func (v *view) checkPredicate(pred Predicate) error {
	if pred.Op == OpAll {
		return nil
	}
	ci := v.schema.ColIndex(pred.Col)
	if ci < 0 {
		return fmt.Errorf("relstore: table %s has no column %q", v.schema.Name, pred.Col)
	}
	col := v.schema.Columns[ci]
	switch pred.Op {
	case OpEq:
		if col.Type != TypeText {
			return fmt.Errorf("relstore: Eq on non-text column %q", pred.Col)
		}
	case OpContains, OpNotContains:
		if col.Type != TypeTextList {
			return fmt.Errorf("relstore: Contains on non-list column %q", pred.Col)
		}
	case OpLe:
		if col.Type != TypeTime {
			return fmt.Errorf("relstore: Le on non-time column %q", pred.Col)
		}
	}
	return nil
}

// indexPKs resolves pred through the covering secondary index, returning
// the matching primary keys unsorted. ok is false when no index serves
// the predicate.
func (v *view) indexPKs(pred Predicate) (pks []string, ok bool) {
	switch pred.Op {
	case OpEq, OpContains:
		return v.indexLookup(pred.Col, pred.Text)
	case OpLe:
		return v.indexRangeLE(pred.Col, encodeIndexScalar(TypeTime, pred.Time))
	}
	return nil, false
}

// selectKeys executes pred returning only the matching primary keys in
// primary-key order — no row materialization on either access path. The
// key-only consumers (SELECT-KEYS projections, DELETE/UPDATE WHERE
// candidate resolution, the TTL daemon's expired-row sweep) route through
// it: with a covering index the cost is O(result + log n) — for the TTL
// column that is the ordered-expiry path, O(expired) per daemon cycle —
// and even the sequential fallback no longer clones every matching row.
func (v *view) selectKeys(pred Predicate) ([]string, error) {
	if err := v.checkPredicate(pred); err != nil {
		return nil, err
	}
	if v.plan(pred).Access == "index" {
		if pks, ok := v.indexPKs(pred); ok {
			sort.Strings(pks)
			return pks, nil
		}
	}
	var pks []string
	var scanErr error
	v.scanAll(func(pk string, row Row) bool {
		ok, err := v.matches(pred, row)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			pks = append(pks, pk)
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return pks, nil
}
