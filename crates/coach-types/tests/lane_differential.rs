//! Differential property test: the lock-free ring lane against the
//! `Mutex<VecDeque>` reference lane.
//!
//! Both lanes must deliver *exactly* the sent sequence, in order, under
//! every mix of single sends, batched sends, batched receives,
//! capacity-crossing batches (forcing index wraparound and producer
//! backpressure), and a sender dropped mid-stream. The ring's lock-free
//! fast path earns its keep only if it is observationally identical to
//! the trivially-correct mutex lane — same contract as the scheduler's
//! `NaiveReference` scan.

use coach_types::runtime::{
    ring_channel, spsc_channel, RingReceiver, RingSender, SpscReceiver, SpscSender,
};
use proptest::prelude::*;

/// The sending half of either lane.
trait Tx: Send {
    fn send(&self, item: u16);
    fn send_batch(&self, items: Vec<u16>);
}

/// The receiving half of either lane.
trait Rx {
    fn recv(&self) -> Option<u16>;
    fn recv_batch(&self, out: &mut Vec<u16>, max: usize) -> usize;
}

macro_rules! lane_impls {
    ($tx:ident, $rx:ident) => {
        impl Tx for $tx<u16> {
            fn send(&self, item: u16) {
                $tx::send(self, item)
            }
            fn send_batch(&self, items: Vec<u16>) {
                $tx::send_batch(self, items)
            }
        }
        impl Rx for $rx<u16> {
            fn recv(&self) -> Option<u16> {
                $rx::recv(self)
            }
            fn recv_batch(&self, out: &mut Vec<u16>, max: usize) -> usize {
                $rx::recv_batch(self, out, max)
            }
        }
    };
}

lane_impls!(RingSender, RingReceiver);
lane_impls!(SpscSender, SpscReceiver);

/// Drive one lane end to end: a producer thread sends `items` chunked by
/// the cycled `chunks` plan (chunk size 1 uses the scalar `send`, larger
/// chunks use `send_batch`), then drops the sender (closing mid-stream
/// from the consumer's perspective); the consumer drains with the cycled
/// `maxes` plan (max 1 uses the scalar `recv`, larger maxes use
/// `recv_batch`). Returns everything received in order.
fn drive(
    (tx, rx): (impl Tx, impl Rx),
    items: &[u16],
    chunks: &[usize],
    maxes: &[usize],
) -> Vec<u16> {
    std::thread::scope(|scope| {
        let mut pending = items.to_vec();
        scope.spawn(move || {
            let mut cursor = 0;
            for chunk in chunks.iter().cycle() {
                if cursor >= pending.len() {
                    break;
                }
                let n = (*chunk).min(pending.len() - cursor);
                if n == 1 {
                    tx.send(pending[cursor]);
                } else {
                    tx.send_batch(pending[cursor..cursor + n].to_vec());
                }
                cursor += n;
            }
            pending.clear();
            // `tx` drops here: close-mid-stream as far as the consumer
            // is concerned — it may still be draining buffered items.
        });
        let mut got = Vec::with_capacity(items.len());
        let mut buf = Vec::new();
        'drain: for max in maxes.iter().cycle() {
            if *max == 1 {
                match rx.recv() {
                    Some(item) => got.push(item),
                    None => break 'drain,
                }
            } else {
                buf.clear();
                if rx.recv_batch(&mut buf, *max) == 0 {
                    break 'drain;
                }
                got.append(&mut buf);
            }
        }
        got
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn ring_lane_matches_mutex_reference(
        cap_pow in 1usize..7,
        items in prop::collection::vec(0u16..10_000, 0..400),
        chunks in prop::collection::vec(1usize..33, 1..20),
        maxes in prop::collection::vec(1usize..17, 1..8),
        cut in 0usize..400,
    ) {
        // Capacities 2..64: far below the item count, so batches cross
        // the ring boundary and the producer regularly hits a full ring.
        let capacity = 1usize << cap_pow;
        // Close mid-stream: only a prefix is ever sent.
        let sent = &items[..cut.min(items.len())];
        let ring = drive(ring_channel(capacity), sent, &chunks, &maxes);
        let mutex = drive(spsc_channel(), sent, &chunks, &maxes);
        prop_assert_eq!(&ring, &sent.to_vec());
        prop_assert_eq!(ring, mutex);
    }
}

#[test]
fn lane_differential_smoke_zero_and_tiny() {
    assert_eq!(drive(ring_channel(2), &[], &[1], &[1]), Vec::<u16>::new());
    assert_eq!(drive(ring_channel(2), &[7], &[5], &[4]), vec![7]);
    assert_eq!(drive(spsc_channel(), &[], &[1], &[1]), Vec::<u16>::new());
    assert_eq!(drive(spsc_channel(), &[7], &[5], &[4]), vec![7]);
}
