//! The reliable-session layer: [`SendBuffer`] and [`RecvCursor`].
//!
//! Controller↔worker sockets carry two kinds of post-handshake frames
//! (see [`crate::wire::Envelope`]): *ephemeral* frames (heartbeats, clock
//! sync, session acks) that are never retransmitted, and *reliable*
//! frames (plan traffic, completions, telemetry) stamped with a per-peer
//! monotonic sequence number. Each side keeps a [`SendBuffer`] of sealed
//! reliable frames it has written but not yet seen cumulatively acked,
//! and a [`RecvCursor`] deduplicating what it has received. When a socket
//! dies and a resume handshake succeeds, both sides replay their unacked
//! tails from the peer's cursor — the merged stream each engine observes
//! is identical to the one an unbroken socket would have delivered, which
//! is what makes a transient partition invisible to the planner.
//!
//! Both structs are pure (no I/O, no clocks) so the resume algebra can be
//! property-tested against arbitrary drop/duplicate/reorder schedules.

use std::collections::{BTreeMap, VecDeque};

use crate::wire;

/// Cumulative-ack cadence: a receiver acks its cursor after every this
/// many delivered reliable frames (the worker additionally piggybacks an
/// ack on each heartbeat, so an idle tail still gets trimmed).
pub const ACK_EVERY: u64 = 16;

/// Default [`SendBuffer`] capacity in frames. The buffer only bounds
/// *memory between acks*; a resume needing frames older than the window
/// fails and the session is declared dead, so the cap is set well above
/// anything `ACK_EVERY` plus one reconnect window of traffic can leave
/// unacked.
pub const SEND_WINDOW: usize = 4096;

/// Sender half of the reliable session: assigns sequence numbers, seals
/// reliable envelopes, and keeps every sealed frame until it is
/// cumulatively acked so a resume can replay the unacked tail.
#[derive(Debug)]
pub struct SendBuffer {
    /// Sequence number the next sealed frame will carry.
    next_seq: u64,
    /// Sequence number of `frames.front()` (== `next_seq` when empty).
    base: u64,
    /// Sealed reliable frames for seqs `base..next_seq`, oldest first.
    frames: VecDeque<Vec<u8>>,
    cap: usize,
}

impl Default for SendBuffer {
    fn default() -> Self {
        SendBuffer::new(SEND_WINDOW)
    }
}

impl SendBuffer {
    /// An empty buffer holding at most `cap` unacked frames.
    pub fn new(cap: usize) -> Self {
        SendBuffer {
            next_seq: 0,
            base: 0,
            frames: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Seals `payload` as the next reliable frame, buffers the sealed
    /// bytes for potential replay, and returns them for writing. If the
    /// window is full the oldest unacked frame is evicted — a later
    /// resume reaching back past the eviction point will fail (see
    /// [`SendBuffer::replay_from`]).
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        let frame = wire::seal_reliable(self.next_seq, payload);
        self.next_seq += 1;
        if self.frames.len() == self.cap {
            self.frames.pop_front();
            self.base += 1;
        }
        self.frames.push_back(frame.clone());
        frame
    }

    /// Processes a cumulative ack: the peer has everything below
    /// `cursor`, so those frames can be dropped.
    pub fn ack(&mut self, cursor: u64) {
        while self.base < cursor.min(self.next_seq) {
            self.frames.pop_front();
            self.base += 1;
        }
    }

    /// The sealed frames from `cursor` on, for replay after a resume.
    /// `None` means the window no longer reaches back to `cursor` (an
    /// eviction happened) and the session cannot be resumed losslessly.
    pub fn replay_from(&self, cursor: u64) -> Option<Vec<Vec<u8>>> {
        if cursor < self.base {
            return None;
        }
        let skip = (cursor - self.base) as usize;
        Some(self.frames.iter().skip(skip).cloned().collect())
    }

    /// Frames sealed but not yet acked.
    pub fn in_flight(&self) -> usize {
        self.frames.len()
    }

    /// The sequence number the next frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Receiver half of the reliable session: delivers each sequence number
/// exactly once, in order. Duplicates (replays overlapping frames already
/// seen) are discarded; out-of-order arrivals (a replayed tail on a fresh
/// socket racing the last frames of the dying one, or chaos reordering)
/// are parked and released the moment the gap fills.
#[derive(Debug, Default)]
pub struct RecvCursor {
    next: u64,
    duplicates: u64,
    /// Out-of-order frames awaiting their predecessors, by seq.
    pending: BTreeMap<u64, Vec<u8>>,
}

impl RecvCursor {
    /// A cursor expecting sequence number 0 first.
    pub fn new() -> Self {
        RecvCursor::default()
    }

    /// Feeds one received reliable frame; returns the payloads that are
    /// now deliverable, in sequence order (empty for duplicates and for
    /// arrivals still ahead of a gap).
    pub fn accept(&mut self, seq: u64, payload: Vec<u8>) -> Vec<Vec<u8>> {
        if seq < self.next {
            self.duplicates += 1;
            return Vec::new();
        }
        if seq > self.next {
            if self.pending.insert(seq, payload).is_some() {
                self.duplicates += 1;
            }
            return Vec::new();
        }
        let mut ready = vec![payload];
        self.next += 1;
        while let Some(p) = self.pending.remove(&self.next) {
            ready.push(p);
            self.next += 1;
        }
        ready
    }

    /// The cumulative-ack cursor: every seq below this was delivered.
    pub fn cursor(&self) -> u64 {
        self.next
    }

    /// Duplicate frames discarded so far (resume replays overlap with
    /// in-flight acks by design, so a nonzero count is normal).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{open_envelope, Envelope};
    use proptest::prelude::*;

    fn payload_of(frame: &[u8]) -> (u64, Vec<u8>) {
        match open_envelope(frame.to_vec()).unwrap() {
            Envelope::Reliable { seq, payload } => (seq, payload),
            other => panic!("expected reliable frame, got {other:?}"),
        }
    }

    #[test]
    fn seal_ack_replay_roundtrip() {
        let mut sb = SendBuffer::new(8);
        for i in 0u8..5 {
            sb.seal(&[i]);
        }
        assert_eq!(sb.in_flight(), 5);
        sb.ack(3);
        assert_eq!(sb.in_flight(), 2);
        let tail = sb.replay_from(3).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(payload_of(&tail[0]), (3, vec![3]));
        assert_eq!(payload_of(&tail[1]), (4, vec![4]));
        // Reaching back before the acked point fails.
        assert!(sb.replay_from(2).is_none());
        // Acks never rewind and tolerate cursors past the end.
        sb.ack(1);
        assert_eq!(sb.in_flight(), 2);
        sb.ack(100);
        assert_eq!(sb.in_flight(), 0);
        assert_eq!(sb.next_seq(), 5);
    }

    #[test]
    fn window_eviction_breaks_old_resumes_only() {
        let mut sb = SendBuffer::new(3);
        for i in 0u8..5 {
            sb.seal(&[i]);
        }
        // Frames 0 and 1 were evicted.
        assert!(sb.replay_from(1).is_none());
        let tail = sb.replay_from(2).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(payload_of(&tail[0]).0, 2);
    }

    #[test]
    fn cursor_delivers_exactly_once_in_order() {
        let mut rc = RecvCursor::new();
        assert_eq!(rc.accept(0, vec![0]), vec![vec![0]]);
        assert!(rc.accept(0, vec![0]).is_empty()); // duplicate
        assert!(rc.accept(2, vec![2]).is_empty()); // parked behind the gap
                                                   // Filling the gap releases the parked frame in order.
        assert_eq!(rc.accept(1, vec![1]), vec![vec![1], vec![2]]);
        assert!(rc.accept(2, vec![2]).is_empty()); // late retransmission
        assert_eq!(rc.cursor(), 3);
        assert_eq!(rc.duplicates(), 2);
    }

    /// One fate per link transit of a frame.
    #[derive(Debug, Clone, Copy)]
    enum Fate {
        Deliver,
        Drop,
        Duplicate,
        /// Hold the frame back and deliver it after the rest of the round
        /// (models reordering).
        Delay,
    }

    fn arb_fates() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..4, 0..64)
    }

    fn fate_of(code: u8) -> Fate {
        match code {
            0 => Fate::Deliver,
            1 => Fate::Drop,
            2 => Fate::Duplicate,
            _ => Fate::Delay,
        }
    }

    proptest! {
        /// The resume algebra's core contract: over a link that drops,
        /// duplicates and reorders arbitrarily, retransmission rounds
        /// driven by cumulative acks deliver exactly the original
        /// payload stream, in order, with no duplicates.
        #[test]
        fn lossy_link_with_retransmission_delivers_identical_stream(
            n_msgs in 1usize..48,
            fates in arb_fates(),
        ) {
            let originals: Vec<Vec<u8>> =
                (0..n_msgs).map(|i| vec![i as u8, 0xAB]).collect();
            let mut sb = SendBuffer::new(SEND_WINDOW);
            let mut rc = RecvCursor::new();
            let mut delivered: Vec<Vec<u8>> = Vec::new();
            let mut fate_idx = 0;

            // Round 0: first transmission of everything. Each later round
            // replays the unacked tail (exactly what a resume does) with
            // a fresh slice of the fate schedule; the final round is
            // lossless so every schedule converges.
            let mut wire_frames: Vec<Vec<u8>> =
                originals.iter().map(|p| sb.seal(p)).collect();
            let rounds = fates.len() + 2;
            for round in 0..rounds {
                let lossless = round == rounds - 1;
                let mut arrivals: Vec<Vec<u8>> = Vec::new();
                let mut held: Vec<Vec<u8>> = Vec::new();
                for frame in wire_frames.drain(..) {
                    let fate = if lossless || fates.is_empty() {
                        Fate::Deliver
                    } else {
                        let f = fate_of(fates[fate_idx % fates.len()]);
                        fate_idx += 1;
                        f
                    };
                    match fate {
                        Fate::Deliver => arrivals.push(frame),
                        Fate::Drop => {}
                        Fate::Duplicate => {
                            arrivals.push(frame.clone());
                            arrivals.push(frame);
                        }
                        Fate::Delay => held.push(frame),
                    }
                }
                arrivals.extend(held);
                for frame in arrivals {
                    let (seq, payload) = payload_of(&frame);
                    delivered.extend(rc.accept(seq, payload));
                }
                // Cumulative ack closes the round; the sender retransmits
                // the unacked tail.
                sb.ack(rc.cursor());
                if sb.in_flight() == 0 {
                    break;
                }
                wire_frames = sb.replay_from(rc.cursor()).unwrap();
            }
            prop_assert_eq!(&delivered, &originals);
            prop_assert_eq!(rc.cursor(), n_msgs as u64);
        }

        /// Acks only ever shrink the in-flight window, and the replay
        /// tail always starts exactly at the requested cursor.
        #[test]
        fn ack_monotone_and_replay_aligned(
            acks in proptest::collection::vec(0u64..64, 1..16),
        ) {
            let mut sb = SendBuffer::new(SEND_WINDOW);
            for i in 0..48u8 {
                sb.seal(&[i]);
            }
            let mut high = 0u64;
            for a in acks {
                let before = sb.in_flight();
                sb.ack(a);
                prop_assert!(sb.in_flight() <= before);
                high = high.max(a.min(48));
                if let Some(tail) = sb.replay_from(high) {
                    if let Some(first) = tail.first() {
                        prop_assert_eq!(payload_of(first).0, high);
                    }
                    prop_assert_eq!(tail.len() as u64, 48 - high);
                }
            }
        }
    }
}
