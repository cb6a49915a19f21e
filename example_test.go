package ringlang_test

import (
	"context"
	"fmt"
	"log"

	"ringlang"
)

// ExampleNewClient shows the v2 surface: a long-lived client bound to one
// algorithm and schedule, driven with a context, with per-word results.
func ExampleNewClient() {
	client, err := ringlang.NewClient("three-counters", "",
		ringlang.WithSchedule("round-robin"), ringlang.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close() // releases the Batch/Stream worker pool
	ctx := context.Background()
	report, err := client.Recognize(ctx, ringlang.WordFromString("001122"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single: verdict=%s bits=%d\n", report.Verdict, report.Bits)

	words := []ringlang.Word{
		ringlang.WordFromString("001122"),
		ringlang.WordFromString("010212"),
	}
	for i, res := range client.Batch(ctx, words) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("batch[%d]: verdict=%s member=%v\n", i, res.Report.Verdict, res.Report.Member)
	}
	// Output:
	// single: verdict=accept bits=72
	// batch[0]: verdict=accept member=true
	// batch[1]: verdict=reject member=false
}

// ExampleClient_Stream consumes reports as workers finish: the iterator
// yields (word index, Result) pairs in completion order, and collecting them
// by index reassembles the batch.
func ExampleClient_Stream() {
	client, err := ringlang.NewClient("three-counters", "")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	words := []ringlang.Word{
		ringlang.WordFromString("001122"),
		ringlang.WordFromString("000111222"),
	}
	verdicts := make([]ringlang.Verdict, len(words))
	for i, res := range client.Stream(context.Background(), words) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		verdicts[i] = res.Report.Verdict
	}
	fmt.Println(verdicts[0], verdicts[1])
	// Output: accept accept
}

// ExampleClient_Recognize runs the Theorem 1 one-pass algorithm for a
// regular language on a six-processor ring and prints the exact bit cost.
func ExampleClient_Recognize() {
	client, err := ringlang.NewClient("regular-one-pass", "even-ones")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	report, err := client.Recognize(context.Background(), ringlang.WordFromString("011010"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verdict=%s bits=%d messages=%d\n", report.Verdict, report.Bits, report.Messages)
	// Output: verdict=reject bits=6 messages=6
}

// ExampleClient_Recognize_nonRegular shows a non-regular language recognized
// with counters: {0^k 1^k 2^k} costs Θ(n log n) bits, the minimum possible
// for any non-regular language (Theorem 4).
func ExampleClient_Recognize_nonRegular() {
	client, err := ringlang.NewClient("three-counters", "")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	report, err := client.Recognize(context.Background(), ringlang.WordFromString("000111222"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verdict=%s member=%v messages=%d\n", report.Verdict, report.Member, report.Messages)
	// Output: verdict=accept member=true messages=9
}

// ExampleClient_Recognize_quadratic shows the Section 7 note 1 language
// {wcw}: every algorithm needs Ω(n²) bits, and the streaming comparison
// meets that bound.
func ExampleClient_Recognize_quadratic() {
	client, err := ringlang.NewClient("compare-wcw", "")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	accept, err := client.Recognize(ctx, ringlang.WordFromString("abcab"))
	if err != nil {
		log.Fatal(err)
	}
	reject, err := client.Recognize(ctx, ringlang.WordFromString("abcba"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wcw(abcab)=%s wcw(abcba)=%s\n", accept.Verdict, reject.Verdict)
	// Output: wcw(abcab)=accept wcw(abcba)=reject
}
