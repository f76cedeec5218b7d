//! The slot file the L1 MSHRs, the FSHRs and the L2 MSHRs are built on
//! (`skipit_tilelink::slots`), driven with a toy slot type through random
//! sequences of state changes, frees and free-slot picks and compared after
//! every step with a linear scan of a plain state vector.

use skipit_snap::{codec, SnapError, SnapReader, SnapWriter};
use skipit_tilelink::perturb::splitmix64;
use skipit_tilelink::slots::{first_free, SlotFile, SlotState, Slots, MAX_SLOTS};

/// A toy slot: state 0 is free, 1 and 2 are busy, 3 is waiting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Toy {
    state: u8,
}

codec!(Toy { state });

const WAITING: usize = 1;

impl SlotState for Toy {
    type State = u8;
    const CLASSES: &'static [&'static str] = &["toy occupied", "toy waiting"];

    fn classes(&self) -> u32 {
        u32::from(self.state != 0) | u32::from(self.state == 3) << WAITING
    }

    fn set_state(&mut self, state: u8) {
        self.state = state;
    }
}

/// The free-slot pick as a linear scan: start at `start`, wrap once.
fn reference_rotation_scan(occupied: u64, n: usize, start: usize) -> Option<usize> {
    (0..n)
        .map(|k| (start + k) % n)
        .find(|&i| occupied & (1 << i) == 0)
}

/// The mask of the model's slots whose state satisfies `class`.
fn scan(model: &[u8], class: impl Fn(u8) -> bool) -> u64 {
    model
        .iter()
        .enumerate()
        .filter(|&(_, &s)| class(s))
        .fold(0, |m, (i, _)| m | 1 << i)
}

/// Every observable of `file` against the linear scans of `model`.
fn assert_matches(file: &SlotFile<Toy>, model: &[u8]) {
    let occupied = scan(model, |s| s != 0);
    let waiting = scan(model, |s| s == 3);
    assert_eq!(file.occupied(), occupied);
    assert_eq!(file.mask(WAITING), waiting);
    assert_eq!(file.occupancy(), model.iter().filter(|&&s| s != 0).count());
    assert_eq!(
        Slots(waiting).collect::<Vec<_>>(),
        (0..model.len())
            .filter(|&i| model[i] == 3)
            .collect::<Vec<_>>()
    );
    for start in 0..model.len() {
        assert_eq!(
            file.first_free(start as u32),
            reference_rotation_scan(occupied, model.len(), start),
            "start {start}"
        );
    }
    assert_eq!(file.check_masks(), Ok(()));
    let states: Vec<u8> = file.iter().map(|t| t.state).collect();
    assert_eq!(states, model);
}

#[test]
fn slots_walk_set_bits_lowest_first() {
    assert_eq!(Slots(0).collect::<Vec<_>>(), Vec::<usize>::new());
    assert_eq!(Slots(0b1010_0101).collect::<Vec<_>>(), [0, 2, 5, 7]);
    assert_eq!(Slots(1 << 63).collect::<Vec<_>>(), [63]);
}

#[test]
fn first_free_matches_the_rotation_scan() {
    let mut x = 0x5eed_u64;
    let mut rand = || {
        x = splitmix64(x);
        x
    };
    for n in [1usize, 7, 64] {
        let file = u64::MAX >> (64 - n);
        let mut masks = vec![0, file];
        masks.extend((0..n).map(|i| file & !(1 << i)));
        for _ in 0..64 {
            let (a, b) = (rand(), rand());
            masks.extend([a, a | b, a & b, a | b | rand()].map(|m| m & file));
        }
        for &occupied in &masks {
            for start in 0..n {
                assert_eq!(
                    first_free(occupied, n, start as u32),
                    reference_rotation_scan(occupied, n, start),
                    "n={n} start={start} occupied={occupied:#x}"
                );
            }
        }
    }
}

/// Random set/free/pick sequences keep every mask equal to the scan.
#[test]
fn random_sequences_match_the_linear_scan_model() {
    let mut x = 0x51_07_u64;
    let mut rand = |bound: u64| {
        x = splitmix64(x);
        x % bound
    };
    for n in [1usize, 7, 64] {
        let mut file = SlotFile::<Toy>::new(n);
        let mut model = vec![0u8; n];
        assert_matches(&file, &model);
        for _ in 0..2000 {
            let i = rand(n as u64) as usize;
            match rand(3) {
                0 => {
                    let state = 1 + rand(3) as u8;
                    file.set_state(i, state);
                    model[i] = state;
                }
                1 => {
                    file.free(i);
                    model[i] = 0;
                }
                _ => {
                    let start = rand(n as u64) as u32;
                    let pick = file.first_free(start);
                    assert_eq!(
                        pick,
                        reference_rotation_scan(file.occupied(), n, start as usize)
                    );
                    if let Some(slot) = pick {
                        let state = 1 + rand(3) as u8;
                        file.put(slot, Toy { state });
                        model[slot] = state;
                    }
                }
            }
            assert_matches(&file, &model);
        }
    }
}

fn encode(file: &SlotFile<Toy>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    file.encode_state(&mut w);
    w.into_bytes()
}

#[test]
fn decode_rebuilds_the_masks() {
    let mut file = SlotFile::<Toy>::new(7);
    for (i, state) in [(0, 1), (2, 3), (3, 2), (6, 3)] {
        file.set_state(i, state);
    }
    let bytes = encode(&file);
    assert_eq!(bytes, [7, 1, 0, 3, 2, 0, 0, 3], "count, then every slot");
    let mut fresh = SlotFile::<Toy>::new(7);
    let mut r = SnapReader::new(&bytes);
    fresh.decode_state(&mut r, "toy count").unwrap();
    r.finish().unwrap();
    assert_eq!(fresh[..], file[..]);
    assert_eq!(
        (fresh.occupied(), fresh.mask(WAITING)),
        (file.occupied(), file.mask(WAITING))
    );
    assert_eq!(
        (fresh.occupied(), fresh.mask(WAITING)),
        (0b100_1101, 0b100_0100)
    );
    assert_eq!(fresh.check_masks(), Ok(()));
}

#[test]
fn a_wrong_count_is_a_config_mismatch_and_an_oversized_one_is_corrupt() {
    let bytes = encode(&SlotFile::<Toy>::new(7));
    let mut other = SlotFile::<Toy>::new(8);
    assert_eq!(
        other.decode_state(&mut SnapReader::new(&bytes), "toy count"),
        Err(SnapError::ConfigMismatch)
    );
    let mut w = SnapWriter::new();
    w.put_u64(MAX_SLOTS as u64 + 1);
    let bytes = w.into_bytes();
    let mut full = SlotFile::<Toy>::new(MAX_SLOTS);
    assert_eq!(
        full.decode_state(&mut SnapReader::new(&bytes), "toy count"),
        Err(SnapError::Corrupt("toy count"))
    );
}

#[test]
fn a_decoded_index_past_the_file_is_corrupt() {
    let file = SlotFile::<Toy>::new(7);
    assert_eq!(file.check_index(6, "toy pointer"), Ok(6));
    assert_eq!(
        file.check_index(7, "toy pointer"),
        Err(SnapError::Corrupt("toy pointer"))
    );
}

/// A class change that bypasses the setter is what the mirror check is
/// for: it names the class whose mask went stale.
#[test]
fn the_mirror_check_names_a_stale_class() {
    let mut file = SlotFile::<Toy>::new(4);
    file.set_state(1, 1);
    file.slot_mut(1).state = 3;
    let err = file.check_masks().unwrap_err();
    assert!(err.starts_with("toy waiting mask 0x0"), "{err}");
    file.set_state(1, 3);
    assert_eq!(file.check_masks(), Ok(()));
}
