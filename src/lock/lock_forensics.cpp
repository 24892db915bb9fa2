#include "lock/lock_forensics.h"

#include "common/json.h"

namespace ariesim {

namespace {

void WriteRequestJson(const LockRequestInfo& r, JsonWriter* w) {
  w->BeginObject()
      .Key("txn").Uint(r.txn)
      .Key("mode").String(LockModeName(r.mode))
      .Key("granted").Bool(r.granted);
  if (r.converting) w->Key("converting_to").String(LockModeName(r.conv_target));
  if (r.wait_us > 0 || (!r.granted || r.converting)) {
    w->Key("wait_us").Uint(r.wait_us);
  }
  if (r.granted) w->Key("grant_us").Uint(r.grant_us);
  w->EndObject();
}

}  // namespace

std::string LockTableSnapshot::ToString() const {
  std::string out;
  for (const auto& q : queues) {
    out += q.name.ToString() + ":";
    for (const auto& r : q.requests) {
      out += " txn" + std::to_string(r.txn) + "/" + LockModeName(r.mode);
      if (r.granted) out += "*";
      if (r.converting) {
        out += "->" + std::string(LockModeName(r.conv_target)) + "(conv " +
               std::to_string(r.wait_us) + "us)";
      } else if (!r.granted) {
        out += "(wait " + std::to_string(r.wait_us) + "us)";
      }
    }
    out += "\n";
  }
  for (const auto& t : txns) {
    if (!t.blocked) continue;
    out += "txn" + std::to_string(t.txn) + " blocked " +
           std::to_string(t.blocked_us) + "us on " + t.blocked_on.ToString() +
           "/" + LockModeName(t.blocked_mode) + " (holds " +
           std::to_string(t.held) + ")\n";
  }
  for (const auto& e : edges) {
    out += "txn" + std::to_string(e.waiter) + " -> txn" +
           std::to_string(e.holder) + " on " + e.name.ToString() + "\n";
  }
  return out;
}

std::string LockTableSnapshot::ToJson() const {
  std::string out;
  out.reserve(256 + queues.size() * 128);
  JsonWriter w(&out);
  w.BeginObject()
      .Key("captured_at_ns").Uint(captured_at_ns)
      .Key("queues").BeginArray();
  for (const auto& q : queues) {
    w.BeginObject()
        .Key("name").String(q.name.ToString())
        .Key("requests").BeginArray();
    for (const auto& r : q.requests) WriteRequestJson(r, &w);
    w.EndArray().EndObject();
  }
  w.EndArray().Key("txns").BeginArray();
  for (const auto& t : txns) {
    w.BeginObject()
        .Key("txn").Uint(t.txn)
        .Key("held").Uint(t.held)
        .Key("blocked").Bool(t.blocked);
    if (t.blocked) {
      w.Key("blocked_on").String(t.blocked_on.ToString())
          .Key("blocked_mode").String(LockModeName(t.blocked_mode))
          .Key("blocked_us").Uint(t.blocked_us);
    }
    w.EndObject();
  }
  w.EndArray().Key("edges").BeginArray();
  for (const auto& e : edges) {
    w.BeginObject()
        .Key("waiter").Uint(e.waiter)
        .Key("holder").Uint(e.holder)
        .Key("name").String(e.name.ToString())
        .EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

std::string LockTableSnapshot::ToDot() const {
  // Waits-for digraph. Blocked transactions are drawn filled; edges carry
  // the contested lock name. Parallel edges (one waiter blocked behind
  // several holders on one queue) are kept — they are real dependencies.
  std::string out = "digraph waits_for {\n";
  out += "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  for (const auto& t : txns) {
    out += "  txn" + std::to_string(t.txn) + " [label=\"txn" +
           std::to_string(t.txn) + "\\nheld=" + std::to_string(t.held);
    if (t.blocked) {
      out += "\\nblocked " + std::to_string(t.blocked_us) + "us";
    }
    out += "\"";
    if (t.blocked) out += ", style=filled, fillcolor=lightyellow";
    out += "];\n";
  }
  for (const auto& e : edges) {
    out += "  txn" + std::to_string(e.waiter) + " -> txn" +
           std::to_string(e.holder) + " [label=\"" + e.name.ToString() +
           "\"];\n";
  }
  out += "}\n";
  return out;
}

std::string DeadlockPostmortem::Summary() const {
  std::string out = "cycle[len=" + std::to_string(cycle.size()) + "]";
  for (const auto& n : cycle) {
    out += &n == &cycle.front() ? " " : " -> ";
    out += "txn" + std::to_string(n.txn) + "(";
    if (n.had_grant) {
      out += std::string(LockModeName(n.granted_mode)) + "->";
    }
    out += std::string(LockModeName(n.requested)) + " " + n.name.ToString() +
           ", waited " + std::to_string(n.wait_us) + "us)";
  }
  out += "; victim txn" + std::to_string(victim);
  return out;
}

std::string DeadlockPostmortem::ToJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject()
      .Key("seq").Uint(seq)
      .Key("at_ns").Uint(at_ns)
      .Key("wall_unix_us").Uint(wall_unix_us)
      .Key("victim").Uint(victim)
      .Key("victim_wait_us").Uint(victim_wait_us)
      .Key("cycle").BeginArray();
  for (const auto& n : cycle) {
    w.BeginObject()
        .Key("txn").Uint(n.txn)
        .Key("name").String(n.name.ToString())
        .Key("requested").String(LockModeName(n.requested));
    if (n.had_grant) w.Key("granted").String(LockModeName(n.granted_mode));
    w.Key("wait_us").Uint(n.wait_us).EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

}  // namespace ariesim
