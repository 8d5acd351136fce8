package gdprbench

// Pins of the one way to open a store: what it leaves on disk, and that
// both binaries and the README present the one engine flag set.

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestDiskLayoutPinned opens each engine model unsharded and sharded with
// logging on and asserts the exact file and directory names, so a data
// directory written by an earlier commit still reopens.
func TestDiskLayoutPinned(t *testing.T) {
	audit := func(base string) []string { return []string{base + ".000001.seg", base + ".000001.seg.idx"} }
	perShard := func(n int, file string) []string {
		var out []string
		for i := 0; i < n; i++ {
			dir := fmt.Sprintf("shard-%03d", i)
			out = append(out, dir, dir+"/"+file)
		}
		return out
	}
	cases := []struct {
		name string
		open func(Options) (DB, error)
		o    Options
		want []string
	}{
		{"redis x1", OpenEngine, Options{Engine: "redis", Shards: 1}, append(audit("redis-audit.log"), "redis.aof")},
		{"postgres x1", OpenEngine, Options{Engine: "postgres", Shards: 1}, append(audit("postgres-csvlog"), "postgres.wal")},
		{"redis x3", OpenEngine, Options{Engine: "redis", Shards: 3}, append(audit("redis-audit.log"), perShard(3, "redis.aof")...)},
		{"postgres x3", OpenEngine, Options{Engine: "postgres", Shards: 3}, append(audit("postgres-csvlog"), perShard(3, "postgres.wal")...)},
		// A router over one shard (shard.Open called directly) still shards the directory.
		{"redis router x1", shard.Open, Options{Engine: "redis", Shards: 1}, append(audit("redis-audit.log"), perShard(1, "redis.aof")...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.Dir, tc.o.Compliance = t.TempDir(), FullCompliance()
			for pass := 0; pass < 2; pass++ { // the second pass reopens what the first wrote
				db, err := tc.open(tc.o)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("k%d", pass)
				if err := db.CreateRecord(ControllerActor(), testRecord(key, "neo")); err != nil {
					t.Fatal(err)
				}
				got, err := db.ReadData(ControllerActor(), ByUser("neo"))
				if err != nil || len(got) != pass+1 {
					t.Fatalf("pass %d: read %d records, %v", pass, len(got), err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if pass == 0 { // a reopen rolls the audit trail to segment 000002
					sort.Strings(tc.want)
					if got := listDir(t, tc.o.Dir); !reflect.DeepEqual(got, tc.want) {
						t.Fatalf("data directory holds\n  %v\nwant\n  %v", got, tc.want)
					}
				}
			}
		})
	}
}

// listDir returns every path under dir, relative and sorted.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, _ fs.DirEntry, err error) error {
		if rel, _ := filepath.Rel(dir, p); rel != "." {
			out = append(out, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// engineFlagBlocks renders the ten engine flags the way `-h` prints them,
// one block per flag.
func engineFlagBlocks(t *testing.T) []string {
	t.Helper()
	set := flag.NewFlagSet("engine", flag.ContinueOnError)
	core.RegisterFlags(set)
	var buf bytes.Buffer
	set.SetOutput(&buf)
	set.PrintDefaults()
	blocks := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n  -")
	for i := 1; i < len(blocks); i++ {
		blocks[i] = "  -" + blocks[i]
	}
	if len(blocks) != 10 {
		t.Fatalf("%d engine flag blocks, want 10", len(blocks))
	}
	return blocks
}

// TestBinariesShareEngineFlags builds both binaries and checks that each
// one's -h lists every engine flag exactly as core.RegisterFlags declares
// it (whose output internal/core pins against the golden).
func TestBinariesShareEngineFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	blocks := engineFlagBlocks(t)
	for _, bin := range []string{"gdprbench", "gdprserver"} {
		exe := filepath.Join(t.TempDir(), bin)
		if out, err := exec.Command("go", "build", "-o", exe, "./cmd/"+bin).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", bin, err, out)
		}
		help, _ := exec.Command(exe, "-h").CombinedOutput() // -h exits 0 after printing usage
		for _, b := range blocks {
			if !strings.Contains(string(help)+"\n", b+"\n") {
				t.Errorf("%s -h does not list\n%s", bin, b)
			}
		}
	}
}

// TestREADMEEngineFlagTable checks README's engine-flag table against
// core.RegisterFlags, row for row.
func TestREADMEEngineFlagTable(t *testing.T) {
	set := flag.NewFlagSet("engine", flag.ContinueOnError)
	core.RegisterFlags(set)
	want := "| flag | default | meaning |\n|---|---|---|\n"
	set.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if def == "" {
			def = `""`
		}
		want += fmt.Sprintf("| `-%s` | `%s` | %s |\n", f.Name, def, strings.ReplaceAll(f.Usage, "|", `\|`))
	})
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- engine-flags:begin -->\n", "<!-- engine-flags:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %s … %s section", strings.TrimSpace(begin), end)
	}
	if got != want {
		t.Fatalf("README engine-flag table is stale; it should read:\n%s", want)
	}
}
