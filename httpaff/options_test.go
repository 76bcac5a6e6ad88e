package httpaff_test

import (
	"reflect"
	"testing"

	"affinityaccept/httpaff"
	"affinityaccept/proxyaff"
	"affinityaccept/serve"
	"affinityaccept/wsaff"
)

// TestExportedOptionCount is the ratchet on the configuration surface:
// the four public Config structs together carry exactly this many
// exported fields (serve 19, httpaff 27, proxyaff 9, wsaff 7; with
// evloop.Config.ForcePortable that is 63). An option
// cannot arrive unreviewed: adding one fails here until the count — and
// the reason the option pays — is written down. Lower it freely.
func TestExportedOptionCount(t *testing.T) {
	const want = 62
	got := 0
	for _, cfg := range []any{serve.Config{}, httpaff.Config{}, proxyaff.Config{}, wsaff.Config{}} {
		typ := reflect.TypeOf(cfg)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				got++
			}
		}
	}
	if got != want {
		t.Errorf("the four Config structs export %d fields, the ratchet says %d", got, want)
	}
}
