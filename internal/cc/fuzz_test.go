package cc_test

import (
	"testing"

	"faultsec/internal/cc"
	"faultsec/internal/ftpd"
	"faultsec/internal/httpd"
	"faultsec/internal/sshd"
)

// FuzzCompile checks that the MiniC front end rejects any source with an
// error and never panics. The apps import cc through the runtime, so the
// target lives in the external test package; it is seeded with each app's
// source.
func FuzzCompile(f *testing.F) {
	for _, src := range []string{ftpd.Source(), sshd.Source(), httpd.Source()} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = cc.Compile(src) // an error is an answer; only a panic fails
	})
}
