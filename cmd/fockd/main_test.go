package main

import (
	"strings"
	"testing"
)

// TestCheckFlags: every flag a mode would ignore is refused, naming both
// flags, and the combinations each mode uses pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string // a substring of the error; "" accepts
	}{
		{[]string{"mol", "grid", "servers", "index", "listen"}, ""},
		{[]string{"servers", "index", "journal-dir", "snapshot-every"}, ""},
		{[]string{"standby-of", "listen"}, ""},
		{[]string{"join", "member-id", "incarnation", "standby", "journal-dir"}, ""},
		{[]string{"fleet", "listen", "lease-ttl", "http"}, ""},
		{[]string{"multi", "servers", "index", "multi-sessions", "multi-mem-mb"}, ""},

		{[]string{"multi", "fleet"}, "-multi with -fleet"},
		{[]string{"multi", "join", "member-id"}, "-multi with -join"},
		{[]string{"multi", "join", "standby"}, "-multi with -join"},
		{[]string{"multi", "journal-dir"}, "-multi with -journal-dir"},
		{[]string{"multi", "snapshot-every"}, "-multi with -snapshot-every"},
		{[]string{"multi", "standby-of"}, "-multi with -standby-of"},

		{[]string{"fleet", "journal-dir"}, "-fleet with -journal-dir"},
		{[]string{"fleet", "snapshot-every"}, "-fleet with -snapshot-every"},
		{[]string{"fleet", "standby-of"}, "-fleet with -standby-of"},
		{[]string{"fleet", "join"}, "-fleet with -join"},

		{[]string{"standby"}, "-standby without -join"},
		{[]string{"servers", "index", "member-id"}, "-member-id without -join"},
		{[]string{"incarnation", "journal-dir"}, "-incarnation without -join"},
	} {
		set := map[string]bool{}
		for _, f := range tc.flags {
			set[f] = true
		}
		err := checkFlags(set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: refused: %v", tc.flags, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: got %v, want an error containing %q", tc.flags, err, tc.want)
		}
	}
}
