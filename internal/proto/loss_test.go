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
	"task-done":           replyOrTimeout, // failure only: a success sends none
}

// decodedBodies returns a body of every kind the decoder knows, by tag:
// for each tag byte, the shortest all-zero frame carrying it that decodes.
// An unknown or retired tag decodes at no length.
func decodedBodies() map[byte]Body {
	bodies := make(map[byte]Body)
	for tag := 0; tag < 256; tag++ {
		for pad := 0; pad <= 64; pad++ {
			// From, To, ReqID and Workflow are one zero byte each.
			frame := append([]byte{wireVersion, byte(tag)}, make([]byte, 4+pad)...)
			if env, err := binDecode(frame); err == nil {
				bodies[byte(tag)] = env.Body
				break
			}
		}
	}
	return bodies
}

// codecBodies returns the bodies of decodedBodies by kind name.
func codecBodies() map[string]Body {
	bodies := make(map[string]Body)
	for _, b := range decodedBodies() {
		bodies[b.Kind()] = b
	}
	return bodies
}

// TestLossContract checks the table against the codec's kind tags in both
// directions: every kind has a rule, and every rule names a kind. Every
// kind is exactly one of request (IsRequest), reply (IsReply) or one-way,
// and a kind is bounded by its reply or timeout exactly when it is a
// request or a reply.
func TestLossContract(t *testing.T) {
	bodies := codecBodies()
	for kind, body := range bodies {
		req, rep := IsRequest(body), IsReply(body)
		if req && rep {
			t.Errorf("kind %q is both a request and a reply", kind)
		}
		if rule, ok := lossContract[kind]; !ok {
			t.Errorf("body kind %q has no loss rule", kind)
		} else if (req || rep) != (rule == replyOrTimeout) {
			t.Errorf("kind %q (request %v, reply %v) has loss rule %q", kind, req, rep, rule)
		}
	}
	for kind := range lossContract {
		if _, ok := bodies[kind]; !ok {
			t.Errorf("loss rule for %q names no body kind of the codec", kind)
		}
	}
}
