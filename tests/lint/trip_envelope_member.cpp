// aa_lint self-test fixture: must trip EXACTLY the `envelope-member` rule.
// Arena envelope views are invalidated by publication and delivery, so a
// raw Envelope* held in a member outlives its pointee.

namespace fixture {

struct Envelope {};

class Cache {
 private:
  Envelope* last_seen_ = nullptr;  // the finding: dangling-view member
};

}  // namespace fixture
