//! `BENCHMARK.json` at the repository root declares exactly the
//! metrics the benchmark prints, with the same units.

use softmem_perfbench::{Workload, END_TO_END, PER_LAYER};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

fn declared(text: &str, section: &str) -> Vec<(String, String)> {
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit_at = entry.find("\"unit\": \"").unwrap() + 9;
            let unit = entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_printed_ones() {
    let text = manifest();
    assert_eq!(declared(&text, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&text, "per_layer"), owned(PER_LAYER));
}

#[test]
fn declared_workloads_exist() {
    let text = manifest();
    let start = text.find("\"workloads\"").unwrap();
    let body = &text[start..start + text[start..].find(']').unwrap()];
    let names: Vec<&str> = body
        .split("{\"name\": \"")
        .skip(1)
        .map(|e| &e[..e.find('"').unwrap()])
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for n in names {
        assert!(Workload::parse(n).is_some(), "unknown workload {n}");
    }
}
