package relstore

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// NoLimit is SelectChunk's limit for a whole-result select: one chunk no
// result can fill.
const NoLimit = math.MaxInt

// SelectChunk returns up to limit rows matching pred whose primary key
// sorts strictly after `after`, in primary-key order — the relstore's one
// selector read. A whole-result select is SelectChunk(table, pred, "",
// NoLimit) and is logged as the bare predicate; a bounded chunk logs its
// cursor and limit too. Each call resolves against the snapshot current
// at that moment (Table.reader), so a streaming walk observes per-chunk
// snapshots, not one query-wide version: rows mutated between chunks
// appear in whichever state the chunk covering their key finds them, and
// the monotone pk cursor guarantees every row present for the whole walk
// is visited exactly once. Both access paths emit pk order, so under a
// quiescent table the concatenated chunks are byte-identical to the
// whole result.
func (db *DB) SelectChunk(table string, pred Predicate, after string, limit int) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return nil, err
	}
	rows, err := t.reader().chunk(pred, after, limit)
	if err != nil {
		return nil, err
	}
	detail := pred.String()
	if limit != NoLimit {
		detail = fmt.Sprintf("%s pk>%q limit %d", detail, after, limit)
	}
	db.logStatement("SELECT", table, detail, len(rows), true)
	return rows, nil
}

// chunk is SelectChunk on one table version, through the access path
// plan picks. With a covering index, Eq/Contains walk the composite
// component\0pk range from `after`, so a chunk costs O(limit + log n);
// Le resolves its range through the index, sorts the keys and skips to
// `after`. Otherwise a pk-ordered range scan from `after` filters row by
// row. Rows are clones.
func (v *view) chunk(pred Predicate, after string, limit int) ([]Row, error) {
	if err := v.checkPredicate(pred); err != nil {
		return nil, err
	}
	if limit <= 0 {
		return nil, nil
	}
	start := ""
	if after != "" {
		// Range starts are inclusive; the NUL suffix makes this the
		// smallest key strictly after the cursor.
		start = after + "\x00"
	}
	var rows []Row
	take := func(row Row) bool {
		rows = append(rows, row.Clone())
		return len(rows) < limit
	}
	fetch := func(pk string) bool {
		row, ok := v.heap.Get(pk)
		return !ok || take(row)
	}
	if v.plan(pred).Access == "index" {
		switch pred.Op {
		case OpEq, OpContains:
			prefix := pred.Text + "\x00"
			v.indexes[pred.Col].AscendFrom(prefix+start, func(k string, _ struct{}) bool {
				return strings.HasPrefix(k, prefix) && fetch(pkFromComposite(k))
			})
		default:
			pks, _ := v.indexPKs(pred)
			sort.Strings(pks)
			for _, pk := range pks[sort.SearchStrings(pks, start):] {
				if !fetch(pk) {
					break
				}
			}
		}
		return rows, nil
	}
	var scanErr error
	v.scanFrom(start, func(_ string, row Row) bool {
		ok, err := v.matches(pred, row)
		if err != nil {
			scanErr = err
			return false
		}
		return !ok || take(row)
	})
	return rows, scanErr
}
