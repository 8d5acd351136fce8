package relstore

import "fmt"

// SelectChunk returns up to limit rows matching pred whose primary key
// sorts strictly after `after`, in primary-key order — one bounded step
// of Select. Each call resolves against the snapshot current at that
// moment (readView), so a streaming walk observes per-chunk snapshots,
// not one query-wide version: rows mutated between chunks appear in
// whichever state the chunk covering their key finds them, and the
// monotone pk cursor guarantees every row present for the whole walk is
// visited exactly once. Both Select access paths emit pk order, so under
// a quiescent table the concatenated chunks are byte-identical to the
// materialized result.
//
// The walk is a bounded range scan from the pk B-tree with a per-row
// predicate filter: memory is O(limit) regardless of result size, and
// each row is visited once across the whole stream (chunk k+1 resumes at
// the pk after chunk k's last match).
func (db *DB) SelectChunk(table string, pred Predicate, after string, limit int) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.tableLocked(table)
	if err != nil {
		return nil, err
	}
	v := t.reader()
	if err := v.checkPredicate(pred); err != nil {
		return nil, err
	}
	start := ""
	if after != "" {
		// scanFrom's start is inclusive; the NUL suffix makes it the
		// smallest key strictly after the cursor.
		start = after + "\x00"
	}
	var rows []Row
	var scanErr error
	if limit > 0 {
		v.scanFrom(start, func(pk string, row Row) bool {
			ok, err := v.matches(pred, row)
			if err != nil {
				scanErr = err
				return false
			}
			if ok {
				rows = append(rows, row.Clone())
			}
			return len(rows) < limit
		})
	}
	if scanErr != nil {
		return nil, scanErr
	}
	db.logStatement("SELECT", table, fmt.Sprintf("%s pk>%q limit %d", pred.String(), after, limit), len(rows), true)
	return rows, nil
}
