/**
 * @file
 * Copying a function body from one Module into another.
 *
 * An edit session recompiles a module whose functions mostly did not
 * change; frontend::compileMiniC copies the optimized IR of those
 * functions out of the session's previous module instead of
 * compiling them again. Each Module interns its own types and
 * constants, so a copy maps every type, constant, global and callee
 * into the destination module.
 */
#ifndef IR_CLONE_H
#define IR_CLONE_H

#include "ir/function.h"

namespace repro::ir {

/**
 * Copy the body of @p src into @p dst, a body-less function of
 * another module with the same type.
 *
 * Types are re-interned in @p dst's TypeContext and constants in its
 * Module. Globals and callees resolve by name in @p dst's module, to
 * the first of that name, as Module::globalByName and
 * Module::functionByName do; each must exist there with the same
 * type. Block and value names, comparison predicates, access types
 * and the SSA name counter are copied, so the copy prints exactly as
 * @p src does. So is the order of every use list, as far as the uses
 * in @p src go: the solver enumerates a value's users in that order.
 * Attributes and argument names stay @p dst's own.
 *
 * Throws InternalError when @p dst has a body or another type, or an
 * operand has no counterpart in @p dst's module.
 */
void cloneFunctionBody(const Function &src, Function &dst);

} // namespace repro::ir

#endif // IR_CLONE_H
