package main

import "testing"

// A daemon either joins another's registry or hosts its own, never both:
// joining A while hosting B would leave two registries allocating the
// same job ids into one checkpoint directory.
func TestCheckRegistryFlags(t *testing.T) {
	for _, tc := range []struct {
		join, listen, dir string
		ok                bool
	}{
		{"", "", "", true},
		{"", "127.0.0.1:8690", "", true},
		{"", "", "reg", true},
		{"", "127.0.0.1:8690", "reg", true},
		{"127.0.0.1:8690", "", "", true},
		{"127.0.0.1:8690", "127.0.0.1:8691", "", false},
		{"127.0.0.1:8690", "", "reg", false},
		{"127.0.0.1:8690", "127.0.0.1:8691", "reg", false},
	} {
		if err := checkRegistryFlags(tc.join, tc.listen, tc.dir); (err == nil) != tc.ok {
			t.Errorf("-registry %q -registry-listen %q -registry-dir %q: err = %v, want ok=%v", tc.join, tc.listen, tc.dir, err, tc.ok)
		}
	}
}
