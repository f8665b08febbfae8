// SQL frontend: derive BTPs automatically from program text — the paper's
// "can be readily implemented and applied in practice" claim (§1 (iii)).
// The workload is a small ticket-reservation service written in the SQL
// dialect of sql/parser.h. Its three core programs are robust against MVRC
// despite Browse's predicate read racing with seat updates; adding a
// fourth program (Audit) that reads and rewrites the price in two separate
// statements breaks robustness, and the detector explains why.

#include <cstdio>

#include "btp/unfold.h"
#include "robust/detector.h"
#include "sql/analyzer.h"

using namespace mvrc;

namespace {

constexpr char kTicketSql[] = R"sql(
TABLE Event(event_id, seats_left, price, PRIMARY KEY(event_id));
TABLE Reservation(res_id, event_id, buyer, state, PRIMARY KEY(res_id));
FOREIGN KEY fk_event: Reservation(event_id) REFERENCES Event;

PROGRAM Reserve(:event, :buyer, :res):
  UPDATE Event SET seats_left = seats_left - 1 WHERE event_id = :event;
  INSERT INTO Reservation VALUES (:res, :event, :buyer, 0);
COMMIT;

PROGRAM Cancel(:event, :res):
  UPDATE Event SET seats_left = seats_left + 1 WHERE event_id = :event;
  DELETE FROM Reservation WHERE res_id = :res;
COMMIT;

PROGRAM Browse(:min_seats):
  SELECT event_id, price FROM Event WHERE seats_left >= :min_seats;
COMMIT;

PROGRAM Audit(:event, :markup):
  SELECT price INTO :p FROM Event WHERE event_id = :event;
  UPDATE Event SET price = :p + :markup WHERE event_id = :event;
COMMIT;
)sql";

}  // namespace

int main() {
  Result<Workload> parsed = ParseWorkloadSql(kTicketSql);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.error().c_str());
    return 1;
  }
  const Workload& workload = parsed.value();

  std::printf("derived BTPs:\n");
  for (const Btp& program : workload.programs) {
    std::printf("%s", program.ToDebugString(workload.schema).c_str());
  }

  std::printf("\nunfolded linear programs:\n");
  for (const Ltp& ltp : UnfoldAtMost2(workload.programs)) {
    std::printf("  %s\n", ltp.ToDebugString().c_str());
  }

  // The three core programs are robust — Browse's predicate read over
  // seats_left conflicts with Reserve/Cancel, but no cycle satisfies the
  // type-II condition.
  std::vector<Btp> core{workload.programs[0], workload.programs[1],
                        workload.programs[2]};
  std::printf("\n{Reserve, Cancel, Browse} robustness against MVRC:\n");
  for (AnalysisSettings settings :
       {AnalysisSettings::TupleDep(), AnalysisSettings::AttrDep(),
        AnalysisSettings::TupleDepFk(), AnalysisSettings::AttrDepFk()}) {
    bool robust = IsRobustAgainstMvrc(core, settings, Method::kTypeII);
    std::printf("  %-14s %s\n", settings.name(), robust ? "robust" : "not robust");
  }

  // Adding Audit breaks robustness: its read-then-rewrite of price in two
  // separate statements is a classic lost-update pattern.
  SummaryGraph full = BuildSummaryGraph(workload.programs, AnalysisSettings::AttrDepFk());
  CycleTestOutcome outcome =
      RunCycleTest(full, Method::kTypeII, GetPolicy(IsolationLevel::kMvrc));
  std::printf("\nwith Audit added: %s\n", outcome.robust ? "robust (UNEXPECTED)" : "not robust");
  if (!outcome.robust) {
    std::printf("%s\n", outcome.witness.c_str());
    std::printf(
        "\n(two concurrent Audits of the same event both read the old price\n"
        "and both rewrite it — a lost update that read committed permits.)\n");
  }
  return 0;
}
