package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gdpr"
)

func init() {
	register("F10", runMetadataIndexingGap)
}

// runMetadataIndexingGap is the F10 experiment, the F3-style
// microbenchmark for the metadata-index layer: completion time of a fixed
// batch of equality attribute reads (the BY-USR/BY-PUR shapes that
// dominate GDPR workloads) as the record count grows, with metadata
// indexing off (the paper's Redis scan profile / unindexed PostgreSQL)
// and on (inverted + ordered-expiry indexes in the kvstore, per-column
// secondary B-trees in the relstore). The paper shows the scan legs
// degrading linearly with volume (§6.3, Figures 5b vs 5c); the indexed
// legs stay O(result) and flat.
func runMetadataIndexingGap(scale Scale) (Result, error) {
	sizes := []int{1_000, 4_000}
	reads := 150
	if scale == Paper {
		sizes = []int{10_000, 50_000, 100_000}
		reads = 500
	}
	res := Result{
		ID:     "F10",
		Title:  "Metadata indexing: attribute-read completion, indexed vs scan (F10)",
		Header: []string{"Records", "Redis scan", "Redis indexed", "PostgreSQL scan", "PostgreSQL indexed"},
	}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, engine := range []string{"redis", "postgres"} {
			for _, indexed := range []bool{false, true} {
				wall, err := attributeReadRun(engine, indexed, n, reads)
				if err != nil {
					return res, err
				}
				row = append(row, wall.Round(time.Microsecond).String())
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: metadata queries collapse to full scans without secondary indexes (§6.2) and degrade linearly with volume (§6.3)",
		"beyond the paper: the indexed Redis legs use the kvstore's inverted metadata index — the retrofit the paper stopped short of",
	)
	return res, nil
}

// attributeReadRun loads n records into a fresh engine and times
// `reads` alternating BY-USR / BY-PUR data reads.
func attributeReadRun(engine string, indexed bool, n, reads int) (time.Duration, error) {
	var wall time.Duration
	err := leg{
		opts: core.Options{Engine: engine, Compliance: core.Compliance{AccessControl: true, Strict: true, MetadataIndexing: indexed}, DisableDaemons: true},
		cfg:  core.Config{Records: n, Seed: 1},
	}.with(func(db core.DB, ds *core.Dataset) error {
		start := time.Now()
		for i := 0; i < reads; i++ {
			var sel gdpr.Selector
			if i%2 == 0 {
				sel = gdpr.ByUser(ds.UserName(i % ds.Users))
			} else {
				sel = gdpr.ByPurpose(ds.PurposeName(i % ds.Cfg.Purposes))
			}
			recs, err := db.ReadData(core.ControllerActor(), sel)
			if err != nil {
				return err
			}
			if i%2 == 0 && len(recs) == 0 {
				return fmt.Errorf("experiments: BY-USR read matched nothing at %d records", n)
			}
		}
		wall = time.Since(start)
		return nil
	})
	return wall, err
}
