package metrics_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/serve"
)

// counterSets are the structs every published counter is declared in:
// the -metrics files and fock_metrics (Snapshot), the transport (RPC),
// the stored-ERI tier (Cache), /v1/stats and hfd (Serve, RPC), fock_shard
// (ServerStats), fock_fleet (FleetStats) and /reg/v1/stats
// (RegistryStats).
var counterSets = []any{
	metrics.Snapshot{}, metrics.RPC{}, metrics.Cache{}, metrics.Serve{},
	netga.ServerStats{}, netga.FleetStats{}, serve.RegistryStats{},
}

var (
	ledgerName = regexp.MustCompile(`^[a-z]+\.[a-z0-9_.]+$`)
	tableRow   = regexp.MustCompile("^\\| `([^`]+)` \\|")
)

// counterNames calls add with the JSON name of every field of t: embedded
// sets are flattened as encoding/json flattens them, a slice of a set (the
// per-rank breakdown) is walked into, and a Hist is one counter.
func counterNames(t reflect.Type, add func(name, field string)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			counterNames(f.Type, add)
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" || !f.IsExported() {
			continue
		}
		add(name, t.Name()+"."+f.Name)
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct {
			counterNames(f.Type.Elem(), add)
		}
	}
}

// designRows returns the first-column names of DESIGN.md §6's metric table.
func designRows(t *testing.T) []string {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "### Metric schema")
	if start < 0 {
		t.Fatal("DESIGN.md has no \"### Metric schema\" section")
	}
	section := doc[start:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if m := tableRow.FindStringSubmatch(line); m != nil {
			rows = append(rows, m[1])
		}
	}
	return rows
}

// Every counter the product publishes has one ledger name, owned by one
// set and tabled exactly once in DESIGN.md §6, and every row of that table
// names a live counter.
func TestMetricNamesMatchDesign(t *testing.T) {
	owner := map[string]string{} // name -> set declaring it
	for _, set := range counterSets {
		st := reflect.TypeOf(set)
		counterNames(st, func(name, field string) {
			if !ledgerName.MatchString(name) {
				t.Errorf("%s is published as %q, not <layer>.<name>", field, name)
			}
			if prev, ok := owner[name]; ok && prev != st.String() {
				t.Errorf("%q is declared by both %s and %s", name, prev, st)
			}
			owner[name] = st.String()
		})
	}
	if len(owner) == 0 {
		t.Fatal("no counters found")
	}

	tabled := map[string]int{}
	for _, name := range designRows(t) {
		tabled[name]++
	}
	for name, set := range owner {
		if tabled[name] == 0 {
			t.Errorf("%s (%s) has no row in DESIGN.md §6's metric table", name, set)
		}
	}
	for name, n := range tabled {
		if n > 1 {
			t.Errorf("DESIGN.md §6 tables %s %d times", name, n)
		}
		if _, ok := owner[name]; !ok {
			t.Errorf("DESIGN.md §6 tables %s, which no counter set declares", name)
		}
	}
}
