// Data portability (G 20): a customer downloads every record that
// concerns them, with full metadata, in the benchmark's wire format —
// the "download all the personal data companies have amassed" flow the
// paper's §2.3 describes.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	gdprbench "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "gdpr-port-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := gdprbench.OpenEngine(gdprbench.Options{
		Engine:     "redis",
		Dir:        dir,
		Compliance: gdprbench.FullCompliance(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// The controller has accumulated records for many users over time.
	controller := gdprbench.ControllerActor()
	now := time.Now()
	sources := []string{"web", "mobile", "partner-import"}
	for i := 0; i < 30; i++ {
		user := fmt.Sprintf("user-%d", i%5)
		rec := gdprbench.Record{
			Key:  fmt.Sprintf("item-%04d", i),
			Data: fmt.Sprintf("payload-%04d", i),
			Meta: gdprbench.Metadata{
				Purposes: []string{"service", "analytics"},
				Expiry:   now.Add(365 * 24 * time.Hour),
				User:     user,
				Source:   sources[i%len(sources)],
			},
		}
		if i%4 == 0 {
			rec.Meta.SharedWith = []string{"analytics-co"}
		}
		if err := db.CreateRecord(controller, rec); err != nil {
			log.Fatal(err)
		}
	}

	// user-2 requests a portable export of everything about them (G 20).
	subject := gdprbench.CustomerActor("user-2")
	mine, err := db.ReadData(subject, gdprbench.ByUser("user-2"))
	if err != nil {
		log.Fatal(err)
	}

	export, err := os.Create(dir + "/user-2-export.gdpr")
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range mine {
		// The wire format (§4.2.1) is the portable representation:
		// key;data;PUR=..;TTL=..;USR=..;OBJ=..;DEC=..;SHR=..;SRC=..;
		fmt.Fprintln(export, rec.String())
	}
	if err := export.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("exported %d records for user-2:\n", len(mine))
	for _, rec := range mine {
		fmt.Printf("  %s\n", rec)
	}

	// The export must be complete: cross-check against the controller's
	// own view.
	all, err := db.ReadData(controller, gdprbench.ByUser("user-2"))
	if err != nil {
		log.Fatal(err)
	}
	if len(all) != len(mine) {
		log.Fatalf("export incomplete: %d of %d records", len(mine), len(all))
	}
	fmt.Printf("\nexport verified complete (%d/%d records), written to %s\n",
		len(mine), len(all), export.Name())

	// And it must contain records from every source, including
	// third-party imports the user may not know about (§3.1, origin).
	bySource := map[string]int{}
	for _, rec := range mine {
		bySource[rec.Meta.Source]++
	}
	fmt.Printf("records by origin: %v\n", bySource)
}
