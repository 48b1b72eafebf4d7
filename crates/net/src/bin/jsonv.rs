//! Validates JSON read from stdin with the repo's own strict parser
//! (`hmts-obs::json`) — the CI smoke uses it to check admin-endpoint
//! bodies without depending on an external JSON tool. Exits 0 and prints
//! a one-line shape summary on success; exits 1 with the parse error
//! otherwise.

use std::io::Read;
use std::process::exit;

use hmts::obs::json::{self, Json};

fn summarize(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(_) => "bool".into(),
        Json::UInt(_) | Json::Num(_) => "number".into(),
        Json::Str(_) => "string".into(),
        Json::Arr(items) => format!("array[{}]", items.len()),
        Json::Obj(fields) => {
            let keys: Vec<&str> = fields.keys().map(|k| k.as_str()).collect();
            format!("object{{{}}}", keys.join(","))
        }
    }
}

fn main() {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("jsonv: cannot read stdin: {e}");
        exit(1);
    }
    match json::parse(&input) {
        Ok(v) => println!("jsonv: valid {}", summarize(&v)),
        Err(e) => {
            eprintln!("jsonv: invalid JSON: {e}");
            exit(1);
        }
    }
}
