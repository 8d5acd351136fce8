package core

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
)

// TestOptionsValidate covers every cross-flag rule of the engine flags.
func TestOptionsValidate(t *testing.T) {
	ok := Options{Engine: "redis", Shards: 1}
	with := func(mut func(*Options)) Options {
		o := ok
		mut(&o)
		return o
	}
	cases := []struct {
		name    string
		o       Options
		wantErr string // substring; "" = valid
	}{
		{"defaults", ok, ""},
		{"postgres", with(func(o *Options) { o.Engine = "postgres" }), ""},
		{"redis knobs on redis", with(func(o *Options) { o.KVStripes, o.Tuning.AOFRewritePct = 8, 100 }), ""},
		{"postgres knob on postgres", with(func(o *Options) { o.Engine, o.Tuning.WALCheckpointBytes = "postgres", 1<<20 }), ""},
		{"retention on either", with(func(o *Options) { o.Engine, o.Tuning.AuditRetention = "postgres", time.Hour }), ""},
		{"unknown engine", with(func(o *Options) { o.Engine = "mongo" }), `unknown engine "mongo"`},
		{"empty engine", with(func(o *Options) { o.Engine = "" }), "unknown engine"},
		{"zero shards", with(func(o *Options) { o.Shards = 0 }), "-shards must be >= 1"},
		{"negative shards", with(func(o *Options) { o.Shards = -2 }), "-shards must be >= 1"},
		{"negative kvstripes", with(func(o *Options) { o.KVStripes = -1 }), "-kvstripes must be >= 0"},
		{"kvstripes on postgres", with(func(o *Options) { o.Engine, o.KVStripes = "postgres", 4 }), "-kvstripes applies to the redis engine only"},
		{"negative aofrewrite-pct", with(func(o *Options) { o.Tuning.AOFRewritePct = -1 }), "must be >= 0"},
		{"negative walcheckpoint", with(func(o *Options) { o.Engine, o.Tuning.WALCheckpointBytes = "postgres", -1 }), "must be >= 0"},
		{"negative auditretain", with(func(o *Options) { o.Tuning.AuditRetention = -time.Second }), "must be >= 0"},
		{"aofrewrite-pct on postgres", with(func(o *Options) { o.Engine, o.Tuning.AOFRewritePct = "postgres", 50 }), "-aofrewrite-pct applies to the redis engine only"},
		{"walcheckpoint on redis", with(func(o *Options) { o.Tuning.WALCheckpointBytes = 1 }), "-walcheckpoint applies to the postgres engine only"},
	}
	for _, tc := range cases {
		err := tc.o.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRegisterFlagsGolden pins the engine flag set: exactly the ten flags
// of testdata/engine_flags.golden — names, defaults and usage strings
// copied from `gdprbench -h` at the commit before the two binaries' flag
// blocks became this one.
func TestRegisterFlagsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/engine_flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	RegisterFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	if got.String() != string(want) {
		t.Fatalf("engine flags drifted from the golden:\n--- got\n%s--- want\n%s", got.String(), want)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 10 {
		t.Fatalf("RegisterFlags declared %d flags, want 10", n)
	}
}

// TestRegisterFlagsBuildsOptions: parsed flags land in the Options they
// name, -baseline/-index compose in either order, and a bad value or a
// cross-flag violation surfaces from the returned builder.
func TestRegisterFlagsBuildsOptions(t *testing.T) {
	parse := func(args ...string) (Options, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(new(bytes.Buffer))
		build := RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return build()
	}
	o, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if want := (Options{Engine: "redis", Shards: 1, Compliance: Full(), AuditPolicy: audit.PipeBatched}); o != want {
		t.Fatalf("defaults = %+v, want %+v", o, want)
	}
	o, err = parse("-engine", "postgres", "-shards", "3", "-dir", "/d", "-index", "-auditpolicy", "async",
		"-walcheckpoint", "4096", "-auditretain", "720h")
	if err != nil {
		t.Fatal(err)
	}
	comp := Full()
	comp.MetadataIndexing = true
	want := Options{
		Engine: "postgres", Shards: 3, Dir: "/d", Compliance: comp, AuditPolicy: audit.PipeAsync,
		Tuning: Tuning{WALCheckpointBytes: 4096, AuditRetention: 720 * time.Hour},
	}
	if o != want {
		t.Fatalf("parsed = %+v, want %+v", o, want)
	}
	for _, args := range [][]string{{"-baseline", "-index"}, {"-index", "-baseline"}} {
		o, err := parse(args...)
		if err != nil {
			t.Fatal(err)
		}
		if o.Compliance != (Compliance{MetadataIndexing: true}) {
			t.Fatalf("%v: compliance = %+v, want indexing only", args, o.Compliance)
		}
	}
	if o, err = parse("-kvstripes", "8", "-aofrewrite-pct", "100"); err != nil || o.KVStripes != 8 || o.Tuning.AOFRewritePct != 100 {
		t.Fatalf("redis knobs: %+v, %v", o, err)
	}
	if _, err := parse("-auditpolicy", "eventually"); err == nil {
		t.Fatal("unknown -auditpolicy accepted")
	}
	if _, err := parse("-engine", "postgres", "-kvstripes", "8"); err == nil {
		t.Fatal("-kvstripes on postgres accepted")
	}
}
