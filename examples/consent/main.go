// Consent and objections (G 7.3, G 18.1, G 21): a customer withdraws
// consent for a processing purpose; the processor's reads immediately
// stop seeing the record; the customer later re-consents.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	gdprbench "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "gdpr-consent-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := gdprbench.OpenEngine(gdprbench.Options{
		Engine:     "postgres",
		Dir:        dir,
		Compliance: gdprbench.FullCompliance(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	controller := gdprbench.ControllerActor()
	rec := gdprbench.Record{
		Key:  "loc-trace-1",
		Data: "lat=48.85 lon=2.35",
		Meta: gdprbench.Metadata{
			Purposes: []string{"navigation", "ads"},
			Expiry:   time.Now().Add(180 * 24 * time.Hour),
			User:     "niobe",
			Source:   "mobile-app",
		},
	}
	if err := db.CreateRecord(controller, rec); err != nil {
		log.Fatal(err)
	}

	adsEngine := gdprbench.ProcessorActor("ads-engine", "ads")
	see := func(label string) int {
		got, err := db.ReadData(adsEngine, gdprbench.ByPurpose("ads"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-35s ads processor sees %d record(s)\n", label, len(got))
		return len(got)
	}

	if see("initial consent:") != 1 {
		log.Fatal("expected the record to be visible")
	}

	// Niobe objects to ads processing (G 21): an objection is a per-item
	// blacklist entry the store must honor on every subsequent access.
	niobe := gdprbench.CustomerActor("niobe")
	n, err := db.UpdateMetadata(niobe, gdprbench.ByKey("loc-trace-1"), gdprbench.Delta{
		Attr:   gdprbench.AttrObjection,
		Op:     gdprbench.DeltaAdd,
		Values: []string{"ads"},
	})
	if err != nil || n != 1 {
		log.Fatalf("objection update failed: n=%d err=%v", n, err)
	}
	if see("after objection (G 21):") != 0 {
		log.Fatal("objection was not honored")
	}

	// Navigation processing is unaffected — objections are per-use.
	nav := gdprbench.ProcessorActor("router", "navigation")
	got, err := db.ReadData(nav, gdprbench.ByKey("loc-trace-1"))
	if err != nil || len(got) != 1 {
		log.Fatalf("navigation read broken: %d err=%v", len(got), err)
	}
	fmt.Printf("%-35s navigation processor sees %d record(s)\n", "objection is per-purpose:", len(got))

	// Niobe changes her mind (G 7.3 — consent is revocable and grantable).
	if _, err := db.UpdateMetadata(niobe, gdprbench.ByKey("loc-trace-1"), gdprbench.Delta{
		Attr:   gdprbench.AttrObjection,
		Op:     gdprbench.DeltaRemove,
		Values: []string{"ads"},
	}); err != nil {
		log.Fatal(err)
	}
	if see("after consent restored (G 7.3):") != 1 {
		log.Fatal("consent restoration not honored")
	}

	// The whole consent history is auditable (G 30).
	logs, err := db.GetSystemLogs(gdprbench.RegulatorActor(), time.Now().Add(-time.Minute), time.Now())
	if err != nil {
		log.Fatal(err)
	}
	updates := 0
	for _, e := range logs {
		if e.Op == "UPDATE-METADATA" {
			updates++
		}
	}
	fmt.Printf("audit trail records %d consent change(s)\n", updates)
}
