//! Reference checking: every operation's output is a list of named byte
//! strings, compared exactly against a reference list.

use crate::metrics::Report;

/// One named output of an operation (a `summary_json()`, a
/// `counters_json()`, detection flags, a verdict count, …).
pub type Record = (String, String);

/// Compare `observed` with `reference` record by record; every differing,
/// missing or extra record counts as one failed operation in `report`.
/// Returns the number of mismatches.
pub fn check(label: &str, reference: &[Record], observed: &[Record], report: &mut Report) -> usize {
    let mut bad = 0;
    for (i, (key, value)) in observed.iter().enumerate() {
        match reference.get(i) {
            Some((rk, rv)) if rk == key && rv == value => {}
            Some((rk, rv)) if rk == key => {
                bad += 1;
                report.mismatch(format!(
                    "{label} {key}: got {}, reference {}",
                    preview(value),
                    preview(rv)
                ));
            }
            _ => {
                bad += 1;
                report.mismatch(format!("{label} {key}: no reference record"));
            }
        }
    }
    for (rk, _) in reference.iter().skip(observed.len()) {
        bad += 1;
        report.mismatch(format!("{label} {rk}: missing from the output"));
    }
    bad
}

/// Damage a reference on purpose (the `--corrupt-reference` self-check):
/// the first record's value gains a suffix, so every later comparison with
/// it must fail.
pub fn corrupt(reference: &mut [Record]) {
    if let Some((_, value)) = reference.first_mut() {
        value.push_str("#corrupted");
    }
}

/// Detection flags as `<detected>/<faults> fnv1a:<digest>`, where the digest
/// is the 64-bit FNV-1a hash of the flags written as a `0`/`1` string.
pub fn flags(detected: &[bool]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &d in detected {
        hash ^= u64::from(if d { b'1' } else { b'0' });
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let count = detected.iter().filter(|&&d| d).count();
    format!("{count}/{} fnv1a:{hash:016x}", detected.len())
}

fn preview(s: &str) -> String {
    if s.chars().count() <= 120 {
        s.to_string()
    } else {
        let head: String = s.chars().take(120).collect();
        format!("{head}… ({} bytes)", s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(pairs: &[(&str, &str)]) -> Vec<Record> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn identical_outputs_pass() {
        let r = recs(&[("a", "1"), ("b", "2")]);
        let mut report = Report::default();
        assert_eq!(check("t", &r, &r.clone(), &mut report), 0);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn corrupted_reference_is_caught() {
        let observed = recs(&[("a", "{\"coverage\":1}"), ("b", "2")]);
        let mut reference = observed.clone();
        corrupt(&mut reference);
        let mut report = Report::default();
        assert_eq!(check("t", &reference, &observed, &mut report), 1);
        assert_eq!(report.failed, 1);
        assert!(report.mismatches[0].contains("#corrupted"));
    }

    #[test]
    fn flags_digest_every_position() {
        assert_eq!(flags(&[]), "0/0 fnv1a:cbf29ce484222325");
        // FNV-1a of "1" and "0".
        assert_eq!(flags(&[true]), "1/1 fnv1a:af63ac4c86019afc");
        assert_eq!(flags(&[false]), "0/1 fnv1a:af63ad4c86019caf");
        assert_ne!(flags(&[true, false]), flags(&[false, true]));
    }

    #[test]
    fn missing_and_extra_records_count() {
        let reference = recs(&[("a", "1"), ("b", "2")]);
        let mut report = Report::default();
        assert_eq!(check("t", &reference, &recs(&[("a", "1")]), &mut report), 1);
        assert_eq!(
            check(
                "t",
                &reference,
                &recs(&[("a", "1"), ("c", "2")]),
                &mut report
            ),
            1
        );
        assert_eq!(report.failed, 2);
    }
}
