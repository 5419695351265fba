//! Output checks. An operation fails when it returns an error, misses a
//! planted convoy, or reports a convoy set whose digest differs from the
//! one an earlier operation on the same input reported.

use convoy_core::Convoy;
use std::collections::HashMap;
use traj_datasets::PlantedConvoy;

/// The planted convoys no reported convoy accounts for. A planted convoy is
/// found when some reported convoy contains all its members and lives at
/// least `k` ticks; planted members exist only during the planted interval,
/// so such a convoy lies within it.
pub fn missing_planted<'a>(
    convoys: &[Convoy],
    planted: impl IntoIterator<Item = &'a PlantedConvoy>,
    k: usize,
) -> Vec<&'a PlantedConvoy> {
    planted
        .into_iter()
        .filter(|p| {
            !convoys.iter().any(|c| {
                c.lifetime() >= k as i64 && p.members.iter().all(|m| c.objects.contains(*m))
            })
        })
        .collect()
}

/// FNV-1a over every convoy's interval and members, in result order.
pub fn digest(convoys: &[Convoy]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for convoy in convoys {
        eat(convoy.start as u64);
        eat(convoy.end as u64);
        eat(convoy.objects.len() as u64);
        for member in convoy.objects.members() {
            eat(member.0);
        }
    }
    hash
}

/// The first digest seen for each input; later operations on the same input
/// must reproduce it.
#[derive(Debug, Default)]
pub struct DigestBook {
    seen: HashMap<usize, u64>,
}

impl DigestBook {
    /// Records `digest` for `input`, or checks it against the recorded one.
    pub fn agrees(&mut self, input: usize, digest: u64) -> bool {
        *self.seen.entry(input).or_insert(digest) == digest
    }

    /// The combined digest of every input, independent of visiting order.
    pub fn combined(&self) -> u64 {
        let mut inputs: Vec<_> = self.seen.iter().collect();
        inputs.sort();
        inputs.into_iter().fold(0, |acc, (input, d)| {
            acc.rotate_left(7) ^ d ^ (*input as u64)
        })
    }
}

/// Checks one operation's convoys for `input`: every planted convoy found
/// and the digest reproduced. The error names what failed.
pub fn verify<'a>(
    book: &mut DigestBook,
    input: usize,
    convoys: &[Convoy],
    planted: impl IntoIterator<Item = &'a PlantedConvoy>,
    k: usize,
) -> Result<(), String> {
    let missing = missing_planted(convoys, planted, k);
    if let Some(first) = missing.first() {
        return Err(format!(
            "{} planted convoy(s) missing, first {:?} over [{}, {}]",
            missing.len(),
            first.members,
            first.start,
            first.end
        ));
    }
    if !book.agrees(input, digest(convoys)) {
        return Err(format!("convoy-set digest changed on input {input}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_cluster::Cluster;
    use trajectory::ObjectId;

    fn planted(members: &[u64], start: i64, end: i64) -> PlantedConvoy {
        PlantedConvoy {
            members: members.iter().map(|&m| ObjectId(m)).collect(),
            start,
            end,
        }
    }

    fn convoy(members: &[u64], start: i64, end: i64) -> Convoy {
        Convoy::new(
            Cluster::new(members.iter().map(|&m| ObjectId(m)).collect()),
            start,
            end,
        )
    }

    #[test]
    fn a_result_missing_one_planted_convoy_fails() {
        let truth = [planted(&[1, 2, 3], 0, 99), planted(&[7, 8, 9], 50, 149)];
        let complete = [convoy(&[1, 2, 3, 4], 0, 99), convoy(&[7, 8, 9], 50, 149)];
        let mut book = DigestBook::default();
        assert_eq!(verify(&mut book, 0, &complete, &truth, 20), Ok(()));

        let missing_one = [convoy(&[1, 2, 3, 4], 0, 99)];
        let err = verify(&mut DigestBook::default(), 0, &missing_one, &truth, 20).unwrap_err();
        assert!(err.contains("1 planted convoy(s) missing"), "{err}");

        // A convoy holding only part of the group, or living shorter than
        // k, does not account for it either.
        let partial = [convoy(&[1, 2, 3, 4], 0, 99), convoy(&[7, 8], 50, 149)];
        assert_eq!(missing_planted(&partial, &truth, 20).len(), 1);
        let short = [convoy(&[1, 2, 3], 0, 9), convoy(&[7, 8, 9], 50, 149)];
        assert_eq!(missing_planted(&short, &truth, 20).len(), 1);
    }

    #[test]
    fn a_digest_that_changes_between_reps_fails() {
        let truth = [planted(&[1, 2, 3], 0, 99)];
        let first = [convoy(&[1, 2, 3], 0, 99)];
        let extra = [convoy(&[1, 2, 3], 0, 99), convoy(&[5, 6, 7], 10, 40)];
        let mut book = DigestBook::default();
        assert_eq!(verify(&mut book, 3, &first, &truth, 20), Ok(()));
        assert_eq!(verify(&mut book, 3, &first, &truth, 20), Ok(()));
        // Same planted recall, different result set: still a failure.
        let err = verify(&mut book, 3, &extra, &truth, 20).unwrap_err();
        assert!(err.contains("digest changed"), "{err}");
        // Another input keeps its own reference.
        assert_eq!(verify(&mut book, 4, &extra, &truth, 20), Ok(()));
    }

    #[test]
    fn digest_depends_on_members_interval_and_order() {
        let a = convoy(&[1, 2, 3], 0, 9);
        let b = convoy(&[1, 2, 4], 0, 9);
        let c = convoy(&[1, 2, 3], 0, 10);
        let base = digest(&[a.clone(), b.clone()]);
        assert_ne!(base, digest(&[b.clone(), a.clone()]));
        assert_ne!(base, digest(&[a.clone(), c]));
        assert_eq!(base, digest(&[a, b]));
    }
}
