package proto

import "testing"

// lossRule says what bounds the loss of one envelope in flight: what ends
// the wait, or the state, that the lost envelope leaves behind.
type lossRule string

const (
	// replyOrTimeout: a request's Call returns on its reply or at its
	// timeout, so a lost request and a lost reply both end at the timeout.
	replyOrTimeout lossRule = "reply or timeout"
	// leaseBounded: a lost Cancel, the release included, leaves its holds
	// to their bid window and its commitments and runs to their lease.
	leaseBounded lossRule = "lease-bounded"
	// refreshed: the advertiser pushes a lost Advertise again several times
	// per TTL; a member silent for a whole TTL is presumed dead.
	refreshed lossRule = "refreshed"
	// openSeam1: nothing bounds it yet. A lost label stalls its consumer,
	// and Execute waits for its caller's deadline (the ROADMAP's loss
	// contract, seam (1)).
	openSeam1 lossRule = "open: seam (1)"
)

// lossContract maps every body kind to its loss rule.
var lossContract = map[string]lossRule{
	"fragment-query":      replyOrTimeout,
	"fragment-reply":      replyOrTimeout,
	"feasibility-query":   replyOrTimeout,
	"feasibility-reply":   replyOrTimeout,
	"call-for-bids-batch": replyOrTimeout,
	"bid-batch":           replyOrTimeout,
	"award":               replyOrTimeout,
	"award-ack":           replyOrTimeout,
	"plan-segment":        replyOrTimeout,
	"ack":                 replyOrTimeout,
	"lease-refresh":       replyOrTimeout,
	"lease-refresh-ack":   replyOrTimeout,
	"advertise-ack":       replyOrTimeout,
	"cancel":              leaseBounded,
	"advertise":           refreshed,
	"label-transfer":      openSeam1,
	"task-done":           openSeam1,
}

// codecBodies returns a body of every kind the decoder knows, by kind: for
// each tag byte, the shortest all-zero frame carrying it that decodes. An
// unknown or retired tag decodes at no length.
func codecBodies() map[string]Body {
	bodies := make(map[string]Body)
	for tag := 0; tag < 256; tag++ {
		for pad := 0; pad <= 64; pad++ {
			// From, To, ReqID and Workflow are one zero byte each.
			frame := append([]byte{wireVersion, byte(tag)}, make([]byte, 4+pad)...)
			if env, err := binDecode(frame); err == nil {
				bodies[env.Body.Kind()] = env.Body
				break
			}
		}
	}
	return bodies
}

// TestLossContract checks the table against the codec's kind tags in both
// directions: every kind has a rule, and every rule names a kind. A request
// (IsRequest) is bounded by its reply or timeout, whatever else holds.
func TestLossContract(t *testing.T) {
	bodies := codecBodies()
	for kind, body := range bodies {
		if rule, ok := lossContract[kind]; !ok {
			t.Errorf("body kind %q has no loss rule", kind)
		} else if IsRequest(body) && rule != replyOrTimeout {
			t.Errorf("request kind %q has loss rule %q, want %q", kind, rule, replyOrTimeout)
		}
	}
	for kind := range lossContract {
		if _, ok := bodies[kind]; !ok {
			t.Errorf("loss rule for %q names no body kind of the codec", kind)
		}
	}
}
