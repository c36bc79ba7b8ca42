package core

import (
	"strings"
	"testing"

	"hsmcc/internal/partition"
)

// TestMacroProgramTranslates: thesis §7.1 end to end — a macro-
// parameterised Pthread program passes the whole pipeline.
func TestMacroProgramTranslates(t *testing.T) {
	src := `
#define NTHREADS 4
int acc[NTHREADS];
void *tf(void *tid) {
    int me = (int)tid;
    acc[me] = me;
    pthread_exit(NULL);
}
int main() {
    pthread_t th[NTHREADS];
    int t;
    for (t = 0; t < NTHREADS; t++) {
        pthread_create(&th[t], NULL, tf, (void *)t);
    }
    for (t = 0; t < NTHREADS; t++) {
        pthread_join(th[t], NULL);
    }
    return acc[0];
}`
	p, err := run("macro.c", src, partition.PolicySizeAscending)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(p.Output, "RCCE_APP") || !strings.Contains(p.Output, "sizeof(int) * 4") {
		t.Errorf("macro program mistranslated:\n%s", p.Output)
	}
}
